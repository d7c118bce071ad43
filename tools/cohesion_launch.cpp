// cohesion_launch — fault-tolerant sweep supervisor on one host: the
// cohesion_serve job table driven in-process with N local workers. Spawn
// `cohesion_run --shard i/N` runners, watch each shard under a journal
// heartbeat lease, retry dead shards with exponential backoff + seeded
// jitter (resuming their checkpoints so finished runs never recompute),
// and emit either the exact single-process `--no-timing` report
// (byte-identical) or the cohesion-supervised-partial/1 document naming
// every uncovered shard. Runbook: docs/operations.md; `cohesion_launch
// --help` lists every flag.
//
//   cohesion_launch sweep.json --shards 3 --out report.json
//   cohesion_launch sweep.json --shards 8 --threads 2 --max-parallel 4
//   cohesion_launch sweep.json --shards 3 --max-attempts 5 \
//       --backoff-base 1 --backoff-max 60 --lease-timeout 30
//   cohesion_launch sweep.json --shards 3 --fault kill:shard=1,after=3 \
//       --fault stall:shard=0,after=2 --throttle-ms 20     # injection harness
//
// Exit codes: 0 complete + no run errors; 1 incomplete coverage, run
// errors, or a permanent supervisor error; 2 bad usage; 3 transient I/O
// (e.g. an unreadable spec file, a report not written in full); 4
// SIGTERM/SIGINT (every runner stopped with its journal flushed; rerun
// with the same --work-dir to resume).
#include <iostream>
#include <string>
#include <vector>

#include "run/args.hpp"
#include "run/exit_codes.hpp"
#include "run/journal.hpp"
#include "run/supervisor.hpp"

using namespace cohesion;

int main(int argc, char** argv) {
  run::SupervisorOptions options;
  std::string out_path;
  std::vector<std::string> faults;
  bool quiet = false;
  run::Args args(argc, argv, "cohesion_launch");
  args.read("--shards N", options.shards, "shard workers, as in --shard i/N");
  args.read("--out FILE", out_path, "write the report to FILE instead of stdout");
  args.read("--work-dir DIR", options.work_dir, "journals, partials and worker logs");
  args.read("--threads N", options.threads, "--threads per worker");
  args.read("--max-parallel N", options.max_parallel, "workers running at once, 0 = all");
  args.read("--runner PATH", options.runner, "cohesion_run binary (default: next to this one)");
  run::read_retry_flags(args, options.retry, options.lease);
  args.read("--fault PLAN", faults,
            "inject KIND:shard=J[,attempt=A][,after=K], KIND kill, stall or corrupt (repeatable)");
  args.read("--throttle-ms N", options.throttle_ms, "fault pacing, forwarded to every worker");
  args.read("--quiet", quiet, "no event lines on stderr");
  args.operand("SPEC", options.spec_path, "experiment spec (JSON)");
  for (const std::string& fault : faults) {
    try {
      options.faults.push_back(serve::FaultPlan::parse(fault));
    } catch (const std::exception& e) {
      args.reject("--fault", fault, e.what());
    }
  }
  if (options.shards == 0) args.reject("--shards", "0", "0 (must be >= 1)");
  args.done();
  if (!quiet) {
    options.on_event = [](const std::string& line) {
      std::cerr << "[cohesion_launch] " << line << "\n";
    };
  }

  // The slot loop checks the flag every poll and stops and reaps its
  // runners, so none outlives the launch.
  options.stop = &run::install_stop_flag();
  return run::run_main("cohesion_launch", [&]() -> int {
    const run::SupervisorResult result = run::Supervisor(options).run();
    if (result.exit_code == run::kExitInterrupted) {
      std::cerr << "cohesion_launch: interrupted (SIGTERM/SIGINT) after " << result.covered_runs
                << "/" << result.total_runs << " runs; runners stopped, journals flushed\n";
      return run::kExitInterrupted;
    }
    run::write_file(out_path, result.report.dump(2) + "\n");
    if (!out_path.empty()) {
      std::cerr << (result.complete ? "report written: " : "PARTIAL report written: ")
                << out_path << " (" << result.covered_runs << "/" << result.total_runs
                << " runs)\n";
    }
    return result.exit_code;
  });
}
