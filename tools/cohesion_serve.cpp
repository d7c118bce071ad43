// cohesion_serve — fault-tolerant sweep work-queue: a daemon that accepts
// experiment specs as jobs and leases shards to connecting workers, with
// checkpoint-journal heartbeats, RetryPolicy backoff on dead leases,
// elastic re-partitioning when workers join or die, and an append-only job
// ledger so a daemon restart resumes every in-flight job. The final report
// of a served sweep is byte-identical to the single-process
// `cohesion_run spec.json --no-timing` report (architecture contract 9);
// a sweep that exhausts its retry budget degrades to an explicit
// cohesion-supervised-partial/1 document instead of a silent wrong answer.
//
//   cohesion_serve --listen unix:/tmp/serve.sock            # daemon
//   cohesion_serve --listen 0.0.0.0:7077 --ledger jobs.ledger
//   cohesion_serve --worker unix:/tmp/serve.sock            # join as worker
//   cohesion_serve --worker daemon-host:7077 --threads 4
//   cohesion_serve --submit sweep.json unix:/tmp/serve.sock # enqueue, print id
//   cohesion_serve --submit sweep.json HOST:PORT --wait --out report.json
//   cohesion_serve --status unix:/tmp/serve.sock            # job table JSON
//   cohesion_serve --shutdown unix:/tmp/serve.sock          # graceful stop
//
// `cohesion_serve --help` lists each mode's flags; a flag of another mode
// is rejected. `submit --wait` polls until the job is terminal, writes its
// report and exits with the job's exit code, reconnecting across daemon
// restarts (job ids are ledger-stable).
//
// Exit codes (run/exit_codes.hpp): 0 ok; 1 permanent (failed job, bad
// spec); 2 usage; 3 transient I/O (e.g. a report not written in full); 4
// interrupted by SIGTERM/SIGINT with ledger/journal flushed — a restart
// resumes; 5 transient network (daemon unreachable after
// --connect-attempts retries — relaunching may fix it).
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <iostream>
#include <string>
#include <thread>

#include "run/args.hpp"
#include "run/exit_codes.hpp"
#include "run/journal.hpp"
#include "run/preset.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "serve/worker.hpp"

using namespace cohesion;

namespace {

/// The SIGTERM/SIGINT flag, set by main before any client call.
const std::atomic<bool>* g_interrupted = nullptr;

/// One-request client connection, with connect retry under backoff so
/// submit --wait survives daemon restarts.
serve::LineConnection connect_client(const serve::Address& address, std::size_t attempts,
                                     double backoff) {
  double delay = backoff;
  for (std::size_t attempt = 1;; ++attempt) {
    try {
      return serve::LineConnection(serve::connect_to(address, 10.0));
    } catch (const run::TransientNetworkError&) {
      if (attempt >= attempts || g_interrupted->load()) throw;
      std::this_thread::sleep_for(std::chrono::duration<double>(delay));
      delay = std::min(delay * 2.0, 5.0);
    }
  }
}

run::Json transact_once(const serve::Address& address, const run::Json& request,
                        std::size_t attempts = 1, double backoff = 0.25) {
  serve::LineConnection conn = connect_client(address, attempts, backoff);
  conn.send(request);
  auto reply = conn.receive();
  if (!reply) throw run::TransientNetworkError("daemon closed the connection");
  if (!reply->bool_or("ok", false)) {
    throw std::runtime_error("daemon error: " + reply->string_or("error", "unspecified"));
  }
  return std::move(*reply);
}

int submit(const serve::Address& address, const std::string& spec_path,
           const std::string& name, bool wait, const std::string& out_path) {
  run::Json request = run::Json::object();
  request.set("op", "submit");
  request.set("name", name);
  // The resolved echo crosses the wire: its JSON round trip is exact, so
  // the daemon-side report is byte-identical to the single-process one
  // (contract 9).
  request.set("spec", run::load_experiment_file(spec_path).to_json());
  const run::Json reply = transact_once(address, request, 10, 0.25);
  const std::uint64_t job = reply.uint_or("job", 0);
  std::cerr << "cohesion_serve: submitted job " << job << "\n";
  if (!wait) {
    run::write_file("", std::to_string(job) + "\n");
    return run::kExitSuccess;
  }

  // Poll with a fresh connection each time: a daemon restart mid-job only
  // costs us a few connect retries — the ledger keeps job ids stable.
  for (;;) {
    if (g_interrupted->load()) return run::kExitInterrupted;
    run::Json poll = run::Json::object();
    poll.set("op", "report");
    poll.set("job", job);
    run::Json status;
    try {
      status = transact_once(address, poll, 20, 0.25);
    } catch (const run::TransientNetworkError& e) {
      std::cerr << "cohesion_serve: " << e.what() << " (daemon unreachable)\n";
      return run::kExitTransientNetwork;
    }
    const std::string state = status.string_or("state", "");
    if (state == "running") {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      continue;
    }
    run::write_file(out_path, status.at("report").dump(2) + "\n");
    if (!out_path.empty()) {
      std::cerr << "cohesion_serve: report written: " << out_path << " (job " << job << " "
                << state << ")\n";
    }
    return static_cast<int>(status.uint_or("exit_code", run::kExitPermanent));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string address_arg, spec_path, out_path, name;
  bool wait = false, quiet = false;
  serve::DaemonOptions daemon;
  serve::WorkerOptions worker;
  run::LeaseConfig lease;
  run::Args args(argc, argv, "cohesion_serve");
  const bool listen = args.mode("--listen ADDR", address_arg,
                                "run the daemon on ADDR (unix:PATH or HOST:PORT)");
  args.read("--ledger FILE", daemon.ledger_path, "append-only job ledger, resumed on restart");
  run::read_retry_flags(args, daemon.config.retry, lease);
  args.read("--quiet", quiet, "no event lines on stderr");
  const bool work = args.mode("--worker ADDR", address_arg, "join the daemon at ADDR as a worker");
  args.read("--work-dir DIR", worker.work_dir, "journals, spec files and runner logs");
  args.read("--runner PATH", worker.runner, "cohesion_run binary (default: next to this one)");
  args.read("--threads N", worker.threads, "--threads per runner");
  args.read("--throttle-ms N", worker.throttle_ms, "fault pacing, forwarded to every runner");
  args.read("--connect-attempts N", worker.connect_attempts, "connect tries before exit 5");
  args.read("--connect-backoff S", worker.connect_backoff_seconds, "first retry delay, doubled");
  args.read("--oneshot", worker.oneshot, "exit 0 once the daemon has no work");
  args.read("--name S", name, "advertised worker name (default worker-<pid>)");
  args.read("--quiet", quiet, "no event lines on stderr");
  const bool enqueue = args.mode("--submit SPEC", spec_path, "enqueue SPEC, print the job id");
  args.operand("ADDR", address_arg, "the daemon's address");
  args.read("--wait", wait, "wait for the job; print its report, exit with its exit code");
  args.read("--out FILE", out_path, "with --wait: write the report to FILE");
  args.read("--name S", name, "job name (default: the spec's name)");
  const bool status = args.mode("--status ADDR", address_arg, "print the job table (JSON)");
  args.mode("--shutdown ADDR", address_arg, "stop the daemon gracefully");
  args.done();
  daemon.config.lease_timeout_seconds = lease.timeout_seconds;
  daemon.poll_interval_seconds = lease.poll_interval_seconds;
  daemon.status_interval_seconds = lease.status_interval_seconds;
  // ADDR is part of the command line, so a malformed one is misuse too.
  serve::Address address;
  try {
    address = serve::Address::parse(address_arg);
  } catch (const std::exception& e) {
    const char* flag = listen    ? "--listen"
                       : work    ? "--worker"
                       : enqueue ? "ADDR"
                       : status  ? "--status"
                                 : "--shutdown";
    std::cerr << "cohesion_serve: bad value for " << flag << ": " << e.what() << "\n";
    return run::kExitUsage;
  }
  g_interrupted = &run::install_stop_flag();
  // A peer that vanishes mid-send must surface as EPIPE, not kill us.
  signal(SIGPIPE, SIG_IGN);

  return run::run_main("cohesion_serve", [&]() -> int {
    if (listen) {
      daemon.address = address;
      daemon.stop = g_interrupted;
      if (!quiet) {
        daemon.on_event = [](const std::string& line) {
          std::cerr << "[cohesion_serve] " << line << "\n";
        };
      }
      return serve::run_daemon(daemon);
    }
    if (work) {
      worker.address = address;
      worker.name = name;
      worker.stop = g_interrupted;
      if (!quiet) {
        worker.on_event = [](const std::string& line) {
          std::cerr << "[cohesion_serve:worker] " << line << "\n";
        };
      }
      return serve::run_worker(worker);
    }
    if (enqueue) return submit(address, spec_path, name, wait, out_path);
    if (status) {
      run::Json request = run::Json::object();
      request.set("op", "status");
      run::write_file("", transact_once(address, request).at("status").dump(2) + "\n");
      return run::kExitSuccess;
    }
    // --shutdown: done() admits exactly one mode.
    run::Json request = run::Json::object();
    request.set("op", "shutdown");
    (void)transact_once(address, request);
    std::cerr << "cohesion_serve: shutdown requested\n";
    return run::kExitSuccess;
  });
}
