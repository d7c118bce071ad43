// Fault-tolerant sweep supervision on one host: cohesion_launch runs a
// sweep's `cohesion_run --shard i/N` runners as local children, watches
// each shard under a lease, and retries dead shards until the report is
// byte-identical to the single-process `--no-timing` report — or, when a
// shard exhausts its retry budget, emits the coverage-annotated
// "cohesion-supervised-partial/1" document instead of nothing.
//
// Supervisor::run() submits the resolved experiment to an in-process
// serve::JobTable (the cohesion_serve daemon's core) with `shards` local
// workers — so the partition is min(shards, variants) — and holds the
// leases through the runner-slot loop the serve worker uses (serve/slots:
// runners, journal heartbeats, FaultPlan injection). The lease host is the
// table plus the steady clock, ticked once per poll, so a journal silent
// for LeaseConfig::timeout_seconds expires its lease (wedged == dead); it
// narrates what the table made of each ended lease. The table owns retry
// budgets, seeded backoff, the attempt-supersedes fold and the report.
// tests/run/launch_e2e_test.cpp drives the fault matrix; the bar is
// byte-identity under every schedule. Multi-host sweeps: cohesion_serve
// (docs/operations.md).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "run/batch_runner.hpp"
#include "run/json.hpp"
#include "serve/slots.hpp"

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

class Args;

/// Declare the retry and lease flags cohesion_launch and the cohesion_serve
/// daemon share (--max-attempts, --backoff-base, --backoff-max, --jitter,
/// --jitter-seed, --lease-timeout, --poll-interval, --status-interval).
/// A value that would break a sweep is misuse: --max-attempts 0,
/// --lease-timeout <= 0, or a negative delay, jitter or interval.
void read_retry_flags(Args& args, RetryPolicy& retry, LeaseConfig& lease);

/// Where one shard ended up, for reports and tests.
struct ShardStatus {
  enum class State { pending, running, backoff, done, failed };
  State state = State::pending;
  std::size_t attempts = 0;  ///< leases granted for this shard so far
};

struct SupervisorOptions : serve::SlotConfig {
  SupervisorOptions() { work_dir = "cohesion_launch.work"; }
  std::string spec_path;   ///< experiment spec file, resolved and submitted
  std::size_t shards = 1;  ///< N in --shard i/N: one runner slot each
  std::size_t max_parallel = 0;  ///< runners alive at once; 0 = all
  RetryPolicy retry;
  LeaseConfig lease;
  /// SIGTERM/SIGINT flag from the CLI: once set, run() stops every runner
  /// (each flushes its journal) and returns kExitInterrupted.
  const std::atomic<bool>* stop = nullptr;
};

struct SupervisorResult {
  bool complete = false;   ///< every shard covered; `report` is the merged report
  Json report;             ///< merged single-process report, the partial doc, or null
                           ///< when interrupted
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

class Supervisor {
 public:
  explicit Supervisor(SupervisorOptions options);

  /// Run the whole supervised sweep to a terminal state, or until
  /// options.stop is set (exit_code kExitInterrupted, no report; the work
  /// dir's journals resume the sweep). Blocking; returns rather than
  /// throws for everything attributable to workers (their failures land in
  /// the result). Throws std::runtime_error only for
  /// supervisor-level misuse: unreadable/invalid spec, shards == 0, or an
  /// un-creatable work dir.
  [[nodiscard]] SupervisorResult run();

 private:
  SupervisorOptions options_;
};

}  // namespace cohesion::run
