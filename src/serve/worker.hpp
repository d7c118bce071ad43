// The cohesion_serve worker: turns any host with the binaries into a
// sweep-cluster member. It is a LeaseHost over the wire — each of
// JobTable's lease verbs is one protocol message (serve/daemon) — driving
// one slot of the runner-slot loop cohesion_launch runs too (serve/slots):
// each lease fork/execs `cohesion_run <spec> --shard i/N --resume
// <journal>` in work_dir, so re-leasing the same (job, shard, N) to this
// worker resumes its own journal. Heartbeats relay journal growth plus
// the newly journaled outcomes; valid=false (revoked by an elastic
// re-partition, or expired) stops the runner — its journal flushes — and
// releases every journaled outcome.
//
//   * Connect failures — daemon not up yet, daemon restarting — retry
//     under exponential backoff up to connect_attempts, then exit 5
//     (run::kExitTransientNetwork): an outer supervisor (compose,
//     systemd) knows relaunching may fix it. A connection lost mid-lease
//     stops the runner and re-enters the same connect loop; the daemon
//     reclaims the lease via the dropped connection.
//   * SIGTERM/SIGINT (WorkerOptions::stop): stop the runner, release the
//     lease, exit run::kExitInterrupted — cohesion_run's contract.
#pragma once

#include <atomic>
#include <cstddef>
#include <string>

#include "serve/protocol.hpp"
#include "serve/slots.hpp"

namespace cohesion::serve {

struct WorkerOptions : SlotConfig {
  WorkerOptions() { work_dir = "cohesion_worker.work"; }
  Address address;
  std::string name;  ///< advertised in hello; default worker-<pid>
  double heartbeat_interval_seconds = 0.5;  ///< heartbeat, reap and idle re-request cadence
  std::size_t connect_attempts = 10;  ///< connect tries before exit 5
  double connect_backoff_seconds = 0.25;  ///< doubled per retry, capped at 5s
  double io_timeout_seconds = 10.0;
  bool oneshot = false;  ///< exit 0 when the daemon has no work (tests/benches)
  const std::atomic<bool>* stop = nullptr;  ///< SIGTERM/SIGINT flag from the CLI
};

/// Blocking worker. Returns the process exit code: run::kExitInterrupted
/// after a stop-flag exit, run::kExitTransientNetwork when the daemon
/// stayed unreachable past connect_attempts, 0 on a oneshot idle exit.
int run_worker(const WorkerOptions& options);

}  // namespace cohesion::serve
