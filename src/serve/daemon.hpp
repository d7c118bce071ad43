// The cohesion_serve daemon loop: one poll(2)-driven thread moving
// line-framed JSON messages between client connections and the JobTable,
// journaling every durable fact to the append-only JobLedger.
//
// Message schema (one request line → one response line; connections are
// persistent — a worker holds one for its whole life):
//
//   {"op":"hello","role":"worker","name":S}  → {"ok":true,"worker":W}
//   {"op":"submit","name":S,"spec":{...}}    → {"ok":true,"job":J}
//       spec = a resolved ExperimentSpec echo (the submit client runs
//       run::load_spec_file, so "extends" never crosses the wire)
//   {"op":"request","worker":W}              → {"ok":true,"lease":{...}}
//                                            | {"ok":true,"idle":true}
//       lease = {"id","job","shard","of","spec"}
//   {"op":"heartbeat","lease":L,"journal_bytes":B,"journal_lines":N,
//    "outcomes":[...]}                       → {"ok":true,"valid":B}
//       valid=false: the lease is revoked/expired — stop the runner,
//       flush, send "release", request fresh work
//   {"op":"complete","lease":L,"outcomes":[...]} → {"ok":true}
//   {"op":"fail","lease":L,"exit_code":C,"reason":S,"outcomes":[...]}
//                                            → {"ok":true}
//   {"op":"release","lease":L,"outcomes":[...]}  → {"ok":true}
//   {"op":"report","job":J}  → {"ok":true,"state":"running","covered":..,
//                               "total":..}
//                            | {"ok":true,"state":"done"|"failed",
//                               "exit_code":C,"report":{...}}
//   {"op":"status"}          → {"ok":true,"status":{...}}
//   {"op":"shutdown"}        → {"ok":true}, then the daemon exits 0
//   any error                → {"ok":false,"error":S}
//
// Durability: "job" events are ledgered before the submit is acked;
// outcomes stream into the ledger as workers deliver them; "done"/"failed"
// seal a job. A daemon restart replays the ledger and resumes every
// in-flight job from its journaled outcomes — job ids stay stable, so a
// waiting submit client just reconnects and keeps polling.
//
// SIGTERM/SIGINT (via DaemonOptions::stop, wired by the CLI) exits the
// loop, fsyncs + closes the ledger and returns run::kExitInterrupted —
// the same contract as cohesion_run.
#pragma once

#include <atomic>
#include <functional>
#include <string>

#include "serve/job_table.hpp"
#include "serve/protocol.hpp"

namespace cohesion::serve {

struct DaemonOptions {
  Address address;
  std::string ledger_path = "cohesion_serve.ledger";
  ServeConfig config;
  double poll_interval_seconds = 0.05;   ///< poll(2) cadence / lease-expiry clock
  double status_interval_seconds = 2.0;  ///< progress-event cadence
  double io_timeout_seconds = 10.0;      ///< per-connection send/recv bound
  const std::atomic<bool>* stop = nullptr;  ///< SIGTERM/SIGINT flag from the CLI
  std::function<void(const std::string&)> on_event;  ///< one line per call
};

/// Blocking daemon. Returns the process exit code: 0 after a clean
/// "shutdown" op, run::kExitInterrupted after a stop-flag exit. Throws
/// run::TransientError / TransientNetworkError when the ledger or listen
/// socket cannot be set up, std::runtime_error on a corrupt ledger.
int run_daemon(const DaemonOptions& options);

}  // namespace cohesion::serve
