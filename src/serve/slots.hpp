// The one lease-holder loop. Both front ends of serve::JobTable run it:
// cohesion_launch with the table in-process (run::Supervisor, one slot per
// shard) and the cohesion_serve worker over the wire (serve/worker, one
// slot). A LeaseHost is the seam: the table's lease verbs plus "is
// anything left to do". Each poll run_slots reaps exited runners (a
// covered exit completes the lease, any other fails it), heartbeats the
// live ones with their journal totals and only the fresh outcomes
// (JournalReader), fires armed FaultPlans, and fills empty slots up to
// max_parallel. A heartbeat answered false — lease expired or revoked, or
// the job is over — stops the runner (bounded) and releases: the table
// folds a release on a lease it already revoked exactly like a late
// complete or fail, so one verb covers every ending but the runner's own.
//
// One stem rule: each runner's files are <work_dir>/job<J>_s<I>of<N>.*,
// and it reads job<J>.spec.json, written from the lease's spec once per
// loop (temp file + rename) before the job's first runner starts — never
// rewritten under a runner that is starting. Exceptions from the host (a
// lost connection) propagate; the runners stop as the slots unwind.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "run/batch_runner.hpp"
#include "run/json.hpp"

namespace cohesion::serve {

/// What a host hands a slot: (job, shard, N) plus the job's spec.
struct Lease {
  std::uint64_t id = 0;
  std::uint64_t job = 0;
  std::size_t shard = 0;   ///< i in --shard i/N
  std::size_t of = 1;      ///< N — the job's partition width at grant time
  run::Json spec;          ///< the job's experiment echo (job<J>.spec.json)
  std::size_t attempt = 0; ///< set by the slot loop: its n-th lease for (job, shard)
};

/// One injected fault: sabotage `shard`'s lease number `attempt` (the n-th
/// lease a slot loop got for it) once its journal holds `after_lines`
/// completed-outcome lines.
struct FaultPlan {
  enum class Kind {
    kill,    ///< SIGKILL — a crash/OOM stand-in
    stall,   ///< SIGSTOP — heartbeats stop but the process lives; the
             ///< lease must expire before the host recovers
    corrupt, ///< SIGKILL, then append a torn (newline-free) garbage tail
             ///< to the journal — resume must drop + truncate it
  };
  Kind kind = Kind::kill;
  std::size_t shard = 0;
  std::size_t attempt = 1;      ///< 1-based lease number to sabotage
  std::size_t after_lines = 0;  ///< outcome lines that arm the fault

  /// Parse the CLI form "kind:shard=J[,attempt=A][,after=K]", e.g.
  /// "kill:shard=1,after=3" or "stall:shard=0,attempt=2". Throws
  /// std::runtime_error naming the bad token otherwise.
  static FaultPlan parse(const std::string& text);
  [[nodiscard]] std::string describe() const;
};

/// What both front ends configure about their runner slots.
struct SlotConfig {
  std::string runner;       ///< cohesion_run binary; default: sibling of this executable
  std::string work_dir;     ///< spec files, journals, partials, runner logs
  std::size_t threads = 1;  ///< --threads per runner
  std::size_t throttle_ms = 0;  ///< forwarded as --throttle-ms (fault pacing)
  std::vector<FaultPlan> faults;
  /// Progress/event sink (one line per call, no trailing newline).
  std::function<void(const std::string&)> on_event;

  void event(const std::string& line) const {
    if (on_event) on_event(line);
  }
};

/// Where leases come from and go back to: JobTable's lease verbs. Outcome
/// lists are RunOutcome lines read from the runner's journal.
class LeaseHost {
 public:
  virtual ~LeaseHost() = default;
  /// A lease for `slot`'s worker, or nullopt when nothing is leasable now.
  virtual std::optional<Lease> request(std::size_t slot) = 0;
  /// Journal totals plus the fresh outcomes; false: stop and release.
  virtual bool heartbeat(const Lease& lease, std::size_t journal_bytes,
                         std::size_t journal_lines,
                         const std::vector<run::RunOutcome>& fresh) = 0;
  virtual void complete(const Lease& lease, const std::vector<run::RunOutcome>& outcomes) = 0;
  virtual void fail(const Lease& lease, int exit_code, const std::string& reason,
                    const std::vector<run::RunOutcome>& outcomes) = 0;
  virtual void release(const Lease& lease, const std::vector<run::RunOutcome>& outcomes) = 0;
  /// Nothing left to do: the loop stops its runners and returns.
  virtual bool finished() = 0;
};

/// Sleep `seconds` in slices of at most 20 ms, returning once `*stop` is set.
void nap(double seconds, const std::atomic<bool>* stop);

/// Hold leases for `slots` workers, at most `max_parallel` runners alive
/// at once (0 = one per slot), polling every `poll_seconds` (at least
/// 1 ms), until the host is finished (true) or `*stop` is set (false).
bool run_slots(LeaseHost& host, std::size_t slots, std::size_t max_parallel, double poll_seconds,
               const SlotConfig& config, const std::atomic<bool>* stop = nullptr);

}  // namespace cohesion::serve
