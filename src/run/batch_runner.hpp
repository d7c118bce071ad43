// Parallel execution of a spec grid — the repo's first wall-clock scaling
// axis. Commits inside one run are inherently serial (Async semantics fix
// a total order of Look times), but runs of a sweep are independent, so
// BatchRunner fans the expanded grid out over a std::thread worker pool,
// one isolated Engine per run. It also owns the batch ops features:
// outcomes journal to an append-only JSONL checkpoint (run/checkpoint) so
// a killed batch resumes without re-running or diverging, the run list
// may be one ExperimentSpec::expand_shard slice for multi-process sweeps
// (run/shard merges the partial reports back exactly), an EarlyStop
// rule elides a variant's remaining repeats once early ones agree, and a
// content-addressed ResultCache (run/result_cache) serves unchanged runs
// from disk instead of recomputing them.
//
// Determinism: a run's behavior depends only on its RunSpec (seeds are
// derived from grid position at expansion time, before any thread starts),
// workers claim runs off an atomic counter but write results into the
// run's own grid slot, and aggregation folds that ordered vector — so the
// aggregate is bit-identical for any worker count. With early stopping the
// claim unit becomes a whole variant (its repeats run in order, which the
// rule needs); resume replays journaled outcomes into their slots before
// workers start; neither changes any byte of the report. Wall-clock fields
// are the one exception and live strictly outside the deterministic report
// (RunOutcome::wall_seconds, BatchResult::wall_seconds; never inside
// aggregate/report JSON marked deterministic).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "metrics/stats.hpp"
#include "run/spec.hpp"

namespace cohesion::run {

class ResultCache;

/// What one run produced. `error` is the exception text when the run
/// failed to build or execute (other runs are unaffected); `skipped` marks
/// a repeat the per-variant early-stop rule decided not to execute.
struct RunOutcome {
  std::size_t index = 0;
  std::size_t variant = 0;
  std::size_t repeat = 0;
  std::string label;
  std::uint64_t seed = 0;
  std::size_t n = 0;             ///< actual robot count (factories may adjust)
  bool converged = false;
  bool skipped = false;          ///< elided by EarlyStop; carries no report
  metrics::ConvergenceReport report;
  double custom = 0.0;           ///< trace-metric hook result (0 if no hook)
  /// Stream-mode runs: where the activation stream was written and the
  /// run's spec fingerprint (run::fingerprint_hex), the identity
  /// cohesion_replay validates against. Empty for memory/off modes —
  /// serialized only when set, so existing reports keep their bytes.
  std::string trace_path;
  std::string trace_fingerprint;
  std::string error;
  double wall_seconds = 0.0;     ///< non-deterministic; excluded from reports

  [[nodiscard]] Json to_json() const;  ///< deterministic fields only
  /// Inverse of to_json() for the deterministic fields — the round trip is
  /// exact (doubles dump as shortest round-trippable decimals), which is
  /// what lets checkpoints and shard-merged reports reproduce a fresh
  /// in-process report byte for byte.
  static RunOutcome from_json(const Json& j);
  /// The physics fields of to_json() (n … custom), appended to `j` in
  /// report order, and their inverse (throws on a missing or mistyped
  /// field). They are what a result-cache entry stores.
  void physics_to_json(Json& j) const;
  void physics_from_json(const Json& j);
};

/// Order-independent folds over a set of outcomes. Percentiles use the
/// nearest-rank rule over sorted values; round statistics are over
/// converged runs only (non-converged runs have no convergence time).
struct Aggregate {
  std::size_t runs = 0;
  std::size_t converged = 0;
  std::size_t cohesion_failures = 0;
  std::size_t errors = 0;
  std::size_t skipped = 0;  ///< early-stopped repeats; excluded from folds
  std::uint64_t total_activations = 0;
  double mean_rounds = 0.0;
  double p50_rounds = 0.0;
  double p90_rounds = 0.0;
  double mean_rounds_to_halve = 0.0;
  double mean_initial_diameter = 0.0;
  double mean_final_diameter = 0.0;
  double max_final_diameter = 0.0;
  double max_worst_stretch = 0.0;
  double mean_custom = 0.0;
  double max_custom = 0.0;

  [[nodiscard]] Json to_json() const;
};

struct BatchResult {
  std::vector<RunOutcome> outcomes;  ///< grid order (index-ascending)
  double wall_seconds = 0.0;
  std::size_t threads = 0;
  /// True when Options::cancel stopped the batch early. `outcomes` then
  /// holds only the runs that finished (still index-ascending) — an
  /// incomplete set that must not be reported as a full batch; the journal,
  /// if any, is flushed and resumable.
  bool interrupted = false;
};

/// Executes an expanded grid (or any subset of one, e.g. a shard) over a
/// worker pool. Deterministic by construction — see the file header —
/// with optional append-only JSONL checkpointing/resume (Options) and
/// per-variant early stopping (EarlyStop). Stateless apart from Options;
/// one instance can run many batches.
class BatchRunner {
 public:
  struct Options {
    /// Worker threads; 0 means std::thread::hardware_concurrency().
    std::size_t threads = 1;
    /// Optional per-run metric computed from the finished engine (e.g. a
    /// worst-pair-growth scan over the trace). Must be a pure function of
    /// its arguments — it runs on worker threads.
    std::function<double(const RunSpec&, const core::Engine&)> trace_metric;
    /// When non-empty, journal every completed outcome to this JSONL file
    /// (format: src/run/checkpoint.hpp). With `resume` false an existing
    /// file is overwritten; with `resume` true it is validated against the
    /// run list, its completed grid positions are *not* re-executed, and
    /// the final BatchResult is identical to an uninterrupted run.
    /// Caveat: the journal's fingerprint covers the run list and the
    /// early-stop rule but cannot cover `trace_metric` (an opaque
    /// std::function) — resume-identity holds only if the hook is the
    /// same pure function across the original and resumed invocations.
    /// (The CLI has no hook, so this concerns library callers only.)
    std::string checkpoint_path;
    bool resume = false;
    /// fsync cadence of the journal, in outcomes (1 = every outcome, the
    /// safest; 0 = only on close). A crash loses at most the outcomes
    /// since the last fsync — they are simply re-run on resume.
    std::size_t checkpoint_fsync_every = 1;
    /// Cooperative cancellation (how the CLI implements graceful
    /// SIGTERM/SIGINT): when the pointee becomes true, workers finish the
    /// run in hand, stop claiming new ones, and run() returns with
    /// BatchResult::interrupted set. Never aborts a run mid-flight, so
    /// every journaled line stays a complete outcome.
    const std::atomic<bool>* cancel = nullptr;
    /// Sleep this long after every executed run — a pacing knob for the
    /// fault-injection harness (gives a supervisor's journal poller a
    /// stable line cadence to trigger on). 0 (the default) for real runs.
    std::size_t post_run_delay_ms = 0;
    /// Optional content-addressed outcome store (run/result_cache.hpp):
    /// consulted before executing a run, inserted into after. Hits carry
    /// the byte-identical physics of a recomputation (or the entry is
    /// rejected and the run executes), so every report/bit-identity
    /// contract holds with any mix of hits and misses; the throttle knob
    /// above still applies after a hit, so journal-cadence pacing
    /// survives a warm cache. Shared safely by all worker threads. Same
    /// caveat as checkpoint_path for library callers: the cached `custom`
    /// field is only valid if `trace_metric` is the same pure function
    /// that produced the entry (the CLI has no hook, so this concerns
    /// embedders only).
    ResultCache* cache = nullptr;
  };

  BatchRunner() : BatchRunner(Options{}) {}
  explicit BatchRunner(Options options);

  /// Expand and execute a whole experiment (honors experiment.early_stop).
  [[nodiscard]] BatchResult run(const ExperimentSpec& experiment) const;
  /// Execute an explicit run list (for grids too irregular to express as
  /// sweep axes — the caller labels/indexes the runs), optionally under a
  /// per-variant early-stop rule. The list may be any subset of a grid
  /// (e.g. one ExperimentSpec::expand_shard shard); outcomes keep the
  /// runs' global indices.
  [[nodiscard]] BatchResult run(const std::vector<ExpandedRun>& runs) const;
  [[nodiscard]] BatchResult run(const std::vector<ExpandedRun>& runs,
                                const EarlyStop& early_stop) const;

  static Aggregate aggregate(const std::vector<RunOutcome>& outcomes);
  /// One aggregate per variant, variant-index order.
  static std::vector<Aggregate> aggregate_by_variant(const std::vector<RunOutcome>& outcomes);

  /// Full deterministic report: experiment echo + overall and per-variant
  /// aggregates + per-run outcomes. `timing` (wall seconds, threads,
  /// throughput, the KAsync selection copy that ran:
  /// sched::selection_copy()) is appended under a "timing" key only when
  /// include_timing — diffable across thread counts without it.
  static Json report_json(const ExperimentSpec& experiment, const BatchResult& result,
                          bool include_timing);
  /// Same report built from an already-serialized experiment echo and a
  /// bare outcome list (always timing-free). This is the shard-merge path:
  /// the echo comes from partial reports rather than a live ExperimentSpec,
  /// and reusing its bytes verbatim is what makes a merged report
  /// byte-identical to the single-process `--no-timing` report.
  static Json report_json_from(const Json& experiment_echo,
                               const std::vector<RunOutcome>& outcomes);

 private:
  Options options_;
};

}  // namespace cohesion::run
