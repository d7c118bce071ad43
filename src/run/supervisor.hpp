// Fault-tolerant sweep supervision on one host: cohesion_launch runs a
// sweep's `cohesion_run --shard i/N` workers as local children, watches
// each shard under a lease, and retries dead shards until the report is
// byte-identical to the single-process `--no-timing` report — or, when a
// shard exhausts its retry budget, emits the coverage-annotated
// "cohesion-supervised-partial/1" document instead of nothing.
//
// Supervisor::run() is a thin in-process front end of serve::JobTable,
// the same core the cohesion_serve daemon runs:
//
//   * The resolved experiment is submitted with add_job, exactly as
//     `cohesion_serve --submit` does, and `shards` local workers register,
//     so the partition is min(shards, variants): `--shard i/N` whenever
//     shards <= variants.
//   * Up to `max_parallel` runners live at once (serve/runner starts,
//     watches, classifies and stops them). Every poll stats each journal
//     and heartbeats the table with the fresh outcomes, fires armed
//     faults, then ticks the table: a journal silent for
//     LeaseConfig::timeout_seconds expires its lease (wedged == dead), and
//     the runner is killed. Reaped runners complete or fail their lease;
//     the table owns retry budgets, seeded backoff (RetryPolicy), the
//     attempt-supersedes fold and the final report.
//   * Fault injection. FaultPlan sabotages a (shard, attempt) — the lease
//     shard index and the n-th lease granted for it — from the poll loop:
//     SIGKILL after k journal lines, SIGSTOP (a heartbeat stall the lease
//     must catch), or kill + a torn journal tail (which `--resume` must
//     truncate away). The injection matrix is driven by
//     tests/run/launch_e2e_test.cpp and the fault_sweep stage of
//     bench/run_benches.sh; the bar is byte-identity under every schedule.
//
// Multi-host sweeps use the same core over the wire: cohesion_serve (see
// docs/operations.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "run/batch_runner.hpp"
#include "run/json.hpp"

namespace cohesion::run {

/// Exponential backoff with seeded jitter. backoff_seconds is a pure
/// function of (shard, attempt) — deterministic schedules, testable and
/// reproducible across supervisor restarts — while still de-synchronizing
/// shards that died together (jitter differs per shard).
struct RetryPolicy {
  std::size_t max_attempts = 3;    ///< total launches per shard (>= 1)
  double base_delay_seconds = 0.25;///< backoff before the 2nd attempt
  double multiplier = 2.0;         ///< growth per further attempt
  double max_delay_seconds = 30.0; ///< cap before jitter
  double jitter = 0.5;             ///< adds up to this fraction on top
  std::uint64_t jitter_seed = 0x636f686573696f6eull;

  /// Delay before relaunching `shard` after it has died `failed_attempts`
  /// times (>= 1): min(max, base * multiplier^(failed_attempts-1)) *
  /// (1 + jitter * u) with u in [0,1) drawn by splitmix64 from
  /// (jitter_seed, shard, failed_attempts).
  [[nodiscard]] double backoff_seconds(std::size_t shard, std::size_t failed_attempts) const;
};

/// Lease/heartbeat timing. The journal poll is the supervisor's clock.
struct LeaseConfig {
  double timeout_seconds = 15.0;        ///< no journal growth for this long = dead
  double poll_interval_seconds = 0.05;  ///< reap/heartbeat/fault poll cadence
  double status_interval_seconds = 2.0; ///< partial-aggregate stream cadence
};

/// One injected fault: sabotage `shard`'s launch number `attempt` once its
/// journal holds `after_lines` completed-outcome lines.
struct FaultPlan {
  enum class Kind {
    kill,    ///< SIGKILL — a crash/OOM stand-in
    stall,   ///< SIGSTOP — heartbeats stop but the process lives; the
             ///< lease must expire before the supervisor recovers
    corrupt, ///< SIGKILL, then append a torn (newline-free) garbage tail
             ///< to the journal — resume must drop + truncate it
  };
  Kind kind = Kind::kill;
  std::size_t shard = 0;
  std::size_t attempt = 1;      ///< 1-based launch number to sabotage
  std::size_t after_lines = 0;  ///< outcome lines that arm the fault

  /// Parse the CLI form "kind:shard=J[,attempt=A][,after=K]", e.g.
  /// "kill:shard=1,after=3" or "stall:shard=0,attempt=2". Throws
  /// std::runtime_error naming the bad token otherwise.
  static FaultPlan parse(const std::string& text);
  [[nodiscard]] std::string describe() const;
};

/// Where one shard ended up, for reports and tests.
struct ShardStatus {
  enum class State { pending, running, backoff, done, failed };
  State state = State::pending;
  std::size_t attempts = 0;       ///< leases granted for this shard so far
  std::size_t journal_lines = 0;  ///< completed-outcome lines last observed
  std::string last_failure;       ///< most recent death, human-readable
  [[nodiscard]] const char* state_name() const;
};

struct SupervisorOptions {
  std::string runner;          ///< cohesion_run binary (default: sibling of this process)
  std::string spec_path;       ///< experiment spec file, passed through to workers
  std::size_t shards = 1;      ///< N in --shard i/N
  std::size_t worker_threads = 1;  ///< --threads per worker
  std::size_t max_parallel = 0;    ///< concurrently running workers; 0 = all
  std::size_t throttle_ms = 0;     ///< forwarded as --throttle-ms (fault harness pacing)
  std::string work_dir = "cohesion_launch.work";  ///< journals, partials, worker logs
  RetryPolicy retry;
  LeaseConfig lease;
  std::vector<FaultPlan> faults;
  /// Progress/event sink (one line per call, no trailing newline). The CLI
  /// points this at stderr; default drops events.
  std::function<void(const std::string&)> on_event;
};

struct SupervisorResult {
  bool complete = false;   ///< every shard covered; `report` is the merged report
  Json report;             ///< merged single-process report, or the partial doc
  std::vector<ShardStatus> shards;
  std::size_t total_runs = 0;
  std::size_t covered_runs = 0;  ///< outcomes present in `report`
  int exit_code = 1;             ///< suggested process exit (run/exit_codes.hpp)
};

/// The attempt-supersedes rule for two outcomes of one grid index: fold
/// `incoming` into `kept`, returning true when it replaced `kept`. Two
/// completed outcomes must be byte-identical (otherwise std::runtime_error
/// naming the index); a completed outcome supersedes an errored one in
/// either direction; between two errored ones the incoming one wins.
bool supersede(RunOutcome& kept, const RunOutcome& incoming);

/// Collapse per-attempt outcome lists into exactly one outcome per grid
/// index — the merge a retry's journal needs when it overlaps its dead
/// predecessor's. Attempts fold in order with `supersede` (so between two
/// errors the later attempt wins); a conflict throws std::runtime_error
/// naming the index. Returns outcomes sorted by grid index.
std::vector<RunOutcome> merge_attempt_outcomes(
    const std::vector<std::vector<RunOutcome>>& attempts);

/// Read every complete outcome line of a checkpoint journal (header
/// skipped, torn tail ignored) without validating fingerprints — a
/// heartbeat view of a runner's progress.
/// Returns false when the file is missing/empty. Unparseable complete
/// lines are skipped (a live worker may be mid-write of weird state; the
/// authoritative read is the worker's own resume).
bool read_journal_outcomes(const std::string& path, std::vector<RunOutcome>& outcomes);

class Supervisor {
 public:
  explicit Supervisor(SupervisorOptions options);

  /// Run the whole supervised sweep to a terminal state. Blocking; returns
  /// rather than throws for everything attributable to workers (their
  /// failures land in the result). Throws std::runtime_error only for
  /// supervisor-level misuse: unreadable/invalid spec, shards == 0, or an
  /// un-creatable work dir.
  [[nodiscard]] SupervisorResult run();

 private:
  SupervisorOptions options_;
};

}  // namespace cohesion::run
