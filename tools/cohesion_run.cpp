// cohesion_run — declarative batch driver: load an experiment spec (JSON),
// fan it out over a worker pool, emit an aggregated report. With --shard it
// executes one deterministic slice of the grid for multi-process sweeps;
// with --checkpoint/--resume it journals outcomes so a killed batch
// continues where it left off (see docs/operations.md for the runbook).
// `cohesion_run --help` lists every flag.
//
//   cohesion_run sweep.json --threads 8 --no-timing   # deterministic report
//   cohesion_run sweep.json --shard 0/3 --out p0.json # partial, for cohesion_merge
//   cohesion_run sweep.json --resume run.ckpt         # skip journaled runs
//   cohesion_run sweep.json --trace-dir traces/       # stream each run (replay
//                                                     # with cohesion_replay)
//   cohesion_run sweep.json --cache DIR               # reuse unchanged runs
//   cohesion_run --list                               # registry keys
//
// The spec is either a full ExperimentSpec ({"base": {...}, "sweep": [...],
// "repeats": N}) or a bare RunSpec object, which runs once; either may
// layer over other spec files with "extends" (resolved before anything is
// fingerprinted — docs/experiments.md). $COHESION_CACHE_DIR supplies the
// cache directory when --cache is absent. Spec schema and seed-derivation
// rules: docs/experiments.md; sharding/resume contracts, cache keying and
// file formats: docs/operations.md.
//
// Exit codes (the taxonomy supervisors retry by — docs/experiments.md):
//   0  every run executed without error, report written
//   1  permanent failure: bad spec, unknown registry key, stale/corrupt
//      checkpoint — retrying the same invocation fails the same way
//   2  bad usage
//   3  transient failure: I/O (unreadable spec file, journal write, a
//      report that cannot be written in full to --out or stdout) —
//      retrying may succeed
//   4  interrupted by SIGTERM/SIGINT: the checkpoint journal is flushed
//      and well-formed; rerun with --resume to continue
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>

#include "run/args.hpp"
#include "run/batch_runner.hpp"
#include "run/exit_codes.hpp"
#include "run/instantiate.hpp"
#include "run/journal.hpp"
#include "run/preset.hpp"
#include "run/registry.hpp"
#include "run/result_cache.hpp"
#include "run/shard.hpp"

using namespace cohesion;

namespace {

int list_registries() {
  std::string text;
  const auto print = [&text](const char* kind, const std::vector<std::string>& keys) {
    text += kind;
    text += ':';
    for (const std::string& k : keys) text += ' ' + k;
    text += '\n';
  };
  print("algorithms", run::algorithms().keys());
  print("schedulers", run::schedulers().keys());
  print("errors", run::errors().keys());
  print("initials", run::initials().keys());
  run::write_file("", text);
  return run::kExitSuccess;
}

/// Peak resident set size in KB (Linux ru_maxrss unit), for bounded-memory
/// assertions such as the stream-mode RSS ceiling in
/// tests/run/launch_e2e_test.cpp.
long peak_rss_kb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

}  // namespace

int main(int argc, char** argv) {
  run::BatchRunner::Options options;
  options.threads = 1;
  std::string spec_path, out_path, shard_arg, checkpoint, resume, trace_dir, cache_dir;
  bool list = false, no_timing = false, report_rss = false;
  bool cache_readonly = false, no_cache = false;
  run::Args args(argc, argv, "cohesion_run");
  args.read("--list", list, "print the factory-registry keys and exit");
  args.read("--threads N", options.threads, "worker threads across runs");
  args.read("--out FILE", out_path, "write the report to FILE instead of stdout");
  args.read("--no-timing", no_timing, "no timing block: the same bytes at any --threads");
  args.read("--shard I/N", shard_arg, "run shard I of N (0-based); emit a partial report");
  args.read("--checkpoint FILE", checkpoint, "journal every outcome to FILE (truncates it)");
  args.read("--resume FILE", resume, "skip the runs journaled in FILE, then journal to it");
  args.read("--fsync-every N", options.checkpoint_fsync_every, "journal lines per fsync");
  // Fault-harness pacing: sleep after every run so a supervisor's journal
  // poller sees a steady line cadence. Not for real sweeps.
  args.read("--throttle-ms N", options.post_run_delay_ms, "fault pacing: sleep after every run");
  args.read("--trace-dir DIR", trace_dir, "stream each run to DIR/run_<index>.cohtrace");
  args.read("--peak-rss", report_rss, "print the peak RSS (KB) on stderr after the batch");
  args.read("--cache DIR", cache_dir, "content-addressed result cache (or $COHESION_CACHE_DIR)");
  args.read("--cache-readonly", cache_readonly, "serve cache hits, insert nothing");
  args.read("--no-cache", no_cache, "ignore --cache and $COHESION_CACHE_DIR");
  args.operand("SPEC", spec_path, "ExperimentSpec or bare RunSpec (JSON)", !list);
  run::Shard shard;
  if (!shard_arg.empty()) {
    try {
      shard = run::Shard::parse(shard_arg);
    } catch (const std::exception& e) {
      args.reject("--shard", shard_arg, e.what());
    }
  }
  args.done();
  if (list) return run::run_main("cohesion_run", list_registries);
  if (!checkpoint.empty() && !resume.empty()) {
    // Mutually exclusive: --checkpoint would O_TRUNC the very journal
    // --resume is trying to continue from.
    std::cerr << "--checkpoint and --resume cannot be combined (--resume already "
                 "journals to its file)\n";
    return run::kExitUsage;
  }
  options.checkpoint_path = resume.empty() ? checkpoint : resume;
  options.resume = !resume.empty();
  // Graceful shutdown: BatchRunner checks the flag between runs, so the
  // journal tail stays a crash artifact, never a cancellation artifact.
  options.cancel = &run::install_stop_flag();

  // --cache wins over the environment default; --no-cache beats both (the
  // escape hatch when a wrapper or $COHESION_CACHE_DIR injects a cache).
  if (cache_dir.empty()) {
    if (const char* env = std::getenv("COHESION_CACHE_DIR")) cache_dir = env;
  }
  if (no_cache) cache_dir.clear();

  return run::run_main("cohesion_run", [&]() -> int {
    run::ExperimentSpec experiment = run::load_experiment_file(spec_path);

    if (!trace_dir.empty()) {
      // Force bounded-memory streaming: every run writes its activation
      // stream under the directory, keyed by global grid index (the path
      // template resolves per run at expansion time).
      std::error_code ec;
      std::filesystem::create_directories(trace_dir, ec);
      if (ec) throw run::TransientError("cannot create --trace-dir " + trace_dir);
      experiment.base.trace.mode = "stream";
      experiment.base.trace.path = trace_dir + "/run_{index}.cohtrace";
    }

    std::optional<run::ResultCache> cache;
    if (!cache_dir.empty()) {
      cache.emplace(run::ResultCache::Options{.dir = cache_dir, .read_only = cache_readonly});
      options.cache = &*cache;
    }

    run::check_factories(experiment);
    const std::size_t total_runs = experiment.run_count();
    const std::vector<run::ExpandedRun> runs =
        shard_arg.empty() ? experiment.expand() : experiment.expand_shard(shard.index, shard.count);

    const run::BatchResult result = run::BatchRunner(options).run(runs, experiment.early_stop);
    if (result.interrupted) {
      // No report: it would describe a truncated batch. The journal (if
      // any) is flushed and well-formed — --resume picks up exactly here.
      std::cerr << "cohesion_run: interrupted (SIGTERM/SIGINT) after " << result.outcomes.size()
                << " runs"
                << (options.checkpoint_path.empty()
                        ? ""
                        : "; journal flushed — rerun with --resume " + options.checkpoint_path)
                << "\n";
      return run::kExitInterrupted;
    }
    // A shard emits a partial report — always deterministic (no timing
    // block; wall numbers go to stderr) so partials diff across machines.
    run::Json report =
        shard_arg.empty()
            ? run::BatchRunner::report_json(experiment, result, !no_timing)
            : run::partial_report_json(experiment, shard, total_runs, result.outcomes);

    if (cache) {
      // Hit/miss traffic is wall-clock-class information: it lands in the
      // timing block (and stderr), never in the deterministic report — a
      // warm --no-timing report must stay byte-identical to a cold one.
      const run::CacheStats stats = cache->stats();
      if (run::Json* t = report.find("timing")) t->set("cache", stats.to_json());
      for (const std::string& cause : cache->reject_causes()) {
        std::cerr << "cache reject: " << cause << "\n";
      }
      std::cerr << "cache: " << stats.hits << " hits, " << stats.misses << " misses, "
                << stats.rejects << " rejects, " << stats.inserts << " inserts";
      if (stats.bypassed > 0) std::cerr << ", " << stats.bypassed << " bypassed (stream mode)";
      std::cerr << " (" << cache_dir << ")\n";
    }

    run::write_file(out_path, report.dump(2) + "\n");
    if (!out_path.empty()) {
      std::cerr << "report written: " << out_path << " (" << result.outcomes.size() << " runs, "
                << result.threads << " threads, " << result.wall_seconds << " s)\n";
    }

    // One machine-greppable line; ru_maxrss covers the whole process, which
    // is exactly what a bounded-memory claim must bound.
    if (report_rss) std::cerr << "peak_rss_kb: " << peak_rss_kb() << "\n";

    for (const run::RunOutcome& o : result.outcomes) {
      if (!o.error.empty()) {
        std::cerr << "run " << o.index << " (" << o.label << ") failed: " << o.error << "\n";
        return run::kExitPermanent;
      }
    }
    return run::kExitSuccess;
  });
}
