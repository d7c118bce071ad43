#include "run/batch_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "core/trace_sink.hpp"
#include "run/checkpoint.hpp"
#include "run/exit_codes.hpp"
#include "run/instantiate.hpp"
#include "run/result_cache.hpp"
#include "sched/asynchronous.hpp"
#include "trace/online_metrics.hpp"
#include "trace/stream_writer.hpp"

namespace cohesion::run {

namespace {

double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile of an ascending-sorted vector.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank =
      std::min(sorted.size() - 1,
               static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(sorted.size()))) -
                   (p > 0.0 ? 1 : 0));
  return sorted[rank];
}

/// The grid fields every outcome shares, copied from its ExpandedRun.
RunOutcome outcome_shell(const ExpandedRun& run) {
  RunOutcome out;
  out.index = run.index;
  out.variant = run.variant;
  out.repeat = run.repeat;
  out.label = run.label;
  out.seed = run.spec.seed;
  return out;
}

RunOutcome execute(const ExpandedRun& run,
                   const std::function<double(const RunSpec&, const core::Engine&)>& trace_metric,
                   ResultCache* cache) {
  const double t0 = wall_now();
  if (cache) {
    // Content-addressed short-circuit: a valid entry carries the physics a
    // recomputation would produce, byte for byte; anything invalid was
    // rejected (and counted) inside lookup and falls through to execute.
    if (std::optional<RunOutcome> hit = cache->lookup(run)) {
      hit->wall_seconds = wall_now() - t0;
      return *hit;
    }
  }
  RunOutcome out = outcome_shell(run);
  try {
    RunInstance inst = instantiate(run.spec);
    out.n = inst.initial.size();
    // One sink path for every trace mode: metrics fold online, stream mode
    // also frames every record to disk, and memory mode's engine still
    // records its Trace for trace_metric. The online report is the one
    // metrics::analyze computes from that Trace (ConvergenceAccumulator).
    trace::OnlineMetrics online(inst.initial, run.spec.visibility_radius,
                                run.spec.stop.epsilon);
    std::optional<trace::StreamTraceWriter> writer;
    std::vector<core::TraceSink*> sinks;
    if (run.spec.trace.mode == "stream") {
      if (run.spec.trace.path.empty()) {
        throw std::runtime_error(
            "trace.mode \"stream\" needs a destination: set trace.path in the spec "
            "or pass --trace-dir to cohesion_run");
      }
      const std::uint64_t fp = spec_fingerprint(run.spec);
      trace::StreamHeader header;
      header.fingerprint = fp;
      header.initial = inst.initial;
      header.visibility_radius = run.spec.visibility_radius;
      header.stop_epsilon = run.spec.stop.epsilon;
      trace::StreamWriterOptions wopts;
      wopts.flush_every_records = run.spec.trace.flush_every;
      wopts.index_every_records = run.spec.trace.index_every;
      writer.emplace(run.spec.trace.path, std::move(header), wopts);
      sinks.push_back(&*writer);
      out.trace_path = run.spec.trace.path;
      out.trace_fingerprint = fingerprint_hex(fp);
    }
    sinks.push_back(&online);
    core::TeeSink tee(std::move(sinks));
    inst.engine->set_trace_sink(&tee);
    out.converged = inst.engine->run_until(run.spec.stop);
    tee.finish();
    out.report = online.report();
    if (trace_metric) out.custom = trace_metric(run.spec, *inst.engine);
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  // Errors and skips are refused by insert itself; stream-mode outcomes
  // store their (mode-independent) physics even though they bypass lookup.
  if (cache) cache->insert(run, out);
  out.wall_seconds = wall_now() - t0;
  return out;
}

/// The value an EarlyStop rule compares, or nullopt for outcomes that carry
/// no usable report (skipped repeats, failed runs).
std::optional<double> early_stop_value(const RunOutcome& o, const std::string& metric) {
  if (o.skipped || !o.error.empty()) return std::nullopt;
  if (metric == "final_diameter") return o.report.final_diameter;
  if (metric == "rounds") return static_cast<double>(o.report.rounds);
  if (metric == "rounds_to_halve") return static_cast<double>(o.report.rounds_to_halve);
  if (metric == "activations") return static_cast<double>(o.report.activations);
  if (metric == "worst_stretch") return o.report.worst_stretch;
  if (metric == "custom") return o.custom;
  if (metric == "converged") return o.converged ? 1.0 : 0.0;
  throw std::runtime_error(
      "unknown early_stop metric \"" + metric +
      "\" (known: final_diameter, rounds, rounds_to_halve, activations, worst_stretch, "
      "custom, converged)");
}

/// True once the last `window` usable outcomes among `completed_prefix`
/// agree within epsilon — the prefix is in repeat order, so the decision is
/// a pure function of the spec (see EarlyStop's determinism contract).
bool early_stop_fires(const std::vector<const RunOutcome*>& completed_prefix,
                      const EarlyStop& rule) {
  std::vector<double> values;
  for (const RunOutcome* o : completed_prefix) {
    if (const std::optional<double> v = early_stop_value(*o, rule.metric)) values.push_back(*v);
  }
  if (values.size() < rule.window) return false;
  const auto tail = values.end() - static_cast<std::ptrdiff_t>(rule.window);
  const auto [lo, hi] = std::minmax_element(tail, values.end());
  return *hi - *lo <= rule.epsilon;
}

}  // namespace

Json RunOutcome::to_json() const {
  Json j = Json::object();
  j.set("index", index);
  j.set("variant", variant);
  j.set("repeat", repeat);
  j.set("label", label);
  j.set("seed", seed);
  if (skipped) {
    j.set("skipped", true);
    return j;
  }
  if (!error.empty()) {
    j.set("error", error);
    return j;
  }
  physics_to_json(j);
  if (!trace_path.empty()) {
    j.set("trace_path", trace_path);
    j.set("trace_fingerprint", trace_fingerprint);
  }
  return j;
}

RunOutcome RunOutcome::from_json(const Json& j) {
  if (!j.is_object()) throw std::runtime_error("RunOutcome must be a JSON object");
  RunOutcome o;
  o.index = static_cast<std::size_t>(j.at("index").as_uint());
  o.variant = static_cast<std::size_t>(j.at("variant").as_uint());
  o.repeat = static_cast<std::size_t>(j.at("repeat").as_uint());
  o.label = j.at("label").as_string();
  o.seed = j.at("seed").as_uint();
  o.skipped = j.bool_or("skipped", false);
  if (o.skipped) return o;
  o.error = j.string_or("error", "");
  if (!o.error.empty()) return o;
  o.physics_from_json(j);
  o.trace_path = j.string_or("trace_path", "");
  o.trace_fingerprint = j.string_or("trace_fingerprint", "");
  return o;
}

void RunOutcome::physics_to_json(Json& j) const {
  j.set("n", n);
  j.set("converged", converged);
  j.set("cohesive", report.cohesive);
  j.set("initial_diameter", report.initial_diameter);
  j.set("final_diameter", report.final_diameter);
  j.set("rounds", report.rounds);
  j.set("rounds_to_halve", report.rounds_to_halve);
  j.set("activations", report.activations);
  j.set("worst_stretch", report.worst_stretch);
  j.set("custom", custom);
}

void RunOutcome::physics_from_json(const Json& j) {
  n = static_cast<std::size_t>(j.at("n").as_uint());
  converged = j.at("converged").as_bool();
  report.converged = converged;
  report.cohesive = j.at("cohesive").as_bool();
  report.initial_diameter = j.at("initial_diameter").as_double();
  report.final_diameter = j.at("final_diameter").as_double();
  report.rounds = static_cast<std::size_t>(j.at("rounds").as_uint());
  report.rounds_to_halve = static_cast<std::size_t>(j.at("rounds_to_halve").as_uint());
  report.activations = static_cast<std::size_t>(j.at("activations").as_uint());
  report.worst_stretch = j.at("worst_stretch").as_double();
  custom = j.at("custom").as_double();
}

Json Aggregate::to_json() const {
  Json j = Json::object();
  j.set("runs", runs);
  j.set("converged", converged);
  j.set("cohesion_failures", cohesion_failures);
  j.set("errors", errors);
  j.set("skipped", skipped);
  j.set("total_activations", total_activations);
  j.set("mean_rounds", mean_rounds);
  j.set("p50_rounds", p50_rounds);
  j.set("p90_rounds", p90_rounds);
  j.set("mean_rounds_to_halve", mean_rounds_to_halve);
  j.set("mean_initial_diameter", mean_initial_diameter);
  j.set("mean_final_diameter", mean_final_diameter);
  j.set("max_final_diameter", max_final_diameter);
  j.set("max_worst_stretch", max_worst_stretch);
  j.set("mean_custom", mean_custom);
  j.set("max_custom", max_custom);
  return j;
}

BatchRunner::BatchRunner(Options options) : options_(std::move(options)) {}

BatchResult BatchRunner::run(const ExperimentSpec& experiment) const {
  return run(experiment.expand(), experiment.early_stop);
}

BatchResult BatchRunner::run(const std::vector<ExpandedRun>& runs) const {
  return run(runs, EarlyStop{});
}

BatchResult BatchRunner::run(const std::vector<ExpandedRun>& runs,
                             const EarlyStop& early_stop) const {
  // Reject an unknown metric before any run (or journal write) happens.
  if (early_stop.enabled()) (void)early_stop_value(RunOutcome{}, early_stop.metric);

  BatchResult result;
  std::size_t threads = options_.threads;
  if (threads == 0) threads = std::max<unsigned>(std::thread::hardware_concurrency(), 1);
  threads = std::min(threads, std::max<std::size_t>(runs.size(), 1));
  result.threads = threads;
  result.outcomes.resize(runs.size());

  // done[i] marks slots whose outcome is already final — preloaded from a
  // resumed checkpoint. Written only here, before any worker starts.
  std::vector<char> done(runs.size(), 0);
  std::unique_ptr<CheckpointJournal> journal;
  if (!options_.checkpoint_path.empty()) {
    const std::string fingerprint = runs_fingerprint(runs, early_stop);
    if (options_.resume) {
      CheckpointJournal::Loaded loaded;
      journal = CheckpointJournal::resume(options_.checkpoint_path, fingerprint, runs.size(),
                                          options_.checkpoint_fsync_every, loaded);
      std::unordered_map<std::size_t, std::size_t> slot_of;  // global grid index -> slot
      slot_of.reserve(runs.size());
      for (std::size_t i = 0; i < runs.size(); ++i) slot_of.emplace(runs[i].index, i);
      for (RunOutcome& o : loaded.outcomes) {
        const auto it = slot_of.find(o.index);
        if (it == slot_of.end()) {
          throw std::runtime_error("checkpoint " + options_.checkpoint_path +
                                   ": run index " + std::to_string(o.index) +
                                   " is not part of this run list");
        }
        if (done[it->second]) continue;  // duplicate line; outcomes are deterministic
        result.outcomes[it->second] = std::move(o);
        done[it->second] = 1;
      }
    } else {
      journal = CheckpointJournal::create(options_.checkpoint_path, fingerprint, runs.size(),
                                          options_.checkpoint_fsync_every);
    }
  }

  const double t0 = wall_now();
  // Cooperative cancellation: checked between runs only, so a set flag
  // never tears an in-flight outcome (or its journal line) — it just stops
  // further claims. done[i] doubles as the "slot i holds a real outcome"
  // marker an interrupted batch compacts by.
  const auto cancelled = [&] {
    return options_.cancel != nullptr && options_.cancel->load(std::memory_order_relaxed);
  };
  const auto throttle = [&] {
    if (options_.post_run_delay_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(options_.post_run_delay_ms));
    }
  };
  // Claim units, stolen off a shared counter: without early stopping a
  // unit is a single run, so claim order is racy, but outcome slots are
  // disjoint and each run is self-seeded, so results do not depend on the
  // interleaving. Early stopping makes repeat j's fate depend on outcomes
  // 0..j-1 of its own variant, so a unit is then a whole variant run as
  // one sequential chain (repeat order = grid order). The skip decisions
  // are a pure function of the spec at any thread count — the chains are
  // self-contained and outcomes deterministic.
  std::vector<std::vector<std::size_t>> units;
  if (!early_stop.enabled()) {
    units.reserve(runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i) units.push_back({i});
  } else {
    std::unordered_map<std::size_t, std::size_t> unit_of;  // variant -> units index
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const auto [it, fresh] = unit_of.try_emplace(runs[i].variant, units.size());
      if (fresh) units.emplace_back();
      units[it->second].push_back(i);
    }
  }
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    while (!cancelled()) {
      const std::size_t u = next.fetch_add(1, std::memory_order_relaxed);
      if (u >= units.size()) return;
      std::vector<const RunOutcome*> prefix;
      bool stop_rest = false;
      for (const std::size_t slot : units[u]) {
        // Stopping mid-chain is safe: a resume reloads the journaled
        // prefix and recomputes the (deterministic) skip decisions.
        if (cancelled()) return;
        // Once fired the rule stays fired: skipped repeats contribute no
        // values, so the agreeing window persists.
        stop_rest = stop_rest || (early_stop.enabled() && early_stop_fires(prefix, early_stop));
        if (!done[slot]) {
          if (stop_rest) {
            result.outcomes[slot] = outcome_shell(runs[slot]);
            result.outcomes[slot].skipped = true;
          } else {
            result.outcomes[slot] = execute(runs[slot], options_.trace_metric, options_.cache);
          }
          done[slot] = 1;
          if (journal) journal->append(result.outcomes[slot]);
          if (!stop_rest) throttle();
        }
        prefix.push_back(&result.outcomes[slot]);
      }
    }
  };
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  result.wall_seconds = wall_now() - t0;
  if (cancelled()) {
    result.interrupted = true;
    std::vector<RunOutcome> finished;
    finished.reserve(runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (done[i]) finished.push_back(std::move(result.outcomes[i]));
    }
    result.outcomes = std::move(finished);
  }
  // A journal write failure (disk full, ...) must not kill worker threads
  // mid-flight — append latches it instead; surface it now that the batch
  // (and its results) are complete. Transient: the batch's results are
  // correct, only the journal on disk is short.
  if (journal && !journal->error().empty()) {
    throw TransientError("checkpoint journaling failed: " + journal->error() +
                         " — the journal on disk is incomplete (resuming from it "
                         "re-runs the missing outcomes)");
  }
  return result;
}

Aggregate BatchRunner::aggregate(const std::vector<RunOutcome>& outcomes) {
  Aggregate a;
  a.runs = outcomes.size();
  std::vector<double> rounds_converged;
  for (const RunOutcome& o : outcomes) {
    if (o.skipped) {
      ++a.skipped;
      continue;
    }
    if (!o.error.empty()) {
      ++a.errors;
      continue;
    }
    if (o.converged) {
      ++a.converged;
      rounds_converged.push_back(static_cast<double>(o.report.rounds));
    }
    if (!o.report.cohesive) ++a.cohesion_failures;
    a.total_activations += o.report.activations;
    a.mean_rounds_to_halve += static_cast<double>(o.report.rounds_to_halve);
    a.mean_initial_diameter += o.report.initial_diameter;
    a.mean_final_diameter += o.report.final_diameter;
    a.max_final_diameter = std::max(a.max_final_diameter, o.report.final_diameter);
    a.max_worst_stretch = std::max(a.max_worst_stretch, o.report.worst_stretch);
    a.mean_custom += o.custom;
    a.max_custom = std::max(a.max_custom, o.custom);
  }
  const double ok = static_cast<double>(a.runs - a.errors - a.skipped);
  if (ok > 0.0) {
    a.mean_rounds_to_halve /= ok;
    a.mean_initial_diameter /= ok;
    a.mean_final_diameter /= ok;
    a.mean_custom /= ok;
  }
  if (!rounds_converged.empty()) {
    std::sort(rounds_converged.begin(), rounds_converged.end());
    double sum = 0.0;
    for (const double r : rounds_converged) sum += r;
    a.mean_rounds = sum / static_cast<double>(rounds_converged.size());
    a.p50_rounds = percentile(rounds_converged, 50.0);
    a.p90_rounds = percentile(rounds_converged, 90.0);
  }
  return a;
}

std::vector<Aggregate> BatchRunner::aggregate_by_variant(const std::vector<RunOutcome>& outcomes) {
  std::size_t variants = 0;
  for (const RunOutcome& o : outcomes) variants = std::max(variants, o.variant + 1);
  std::vector<std::vector<RunOutcome>> buckets(variants);
  for (const RunOutcome& o : outcomes) buckets[o.variant].push_back(o);
  std::vector<Aggregate> out;
  out.reserve(variants);
  for (const auto& bucket : buckets) out.push_back(aggregate(bucket));
  return out;
}

Json BatchRunner::report_json_from(const Json& experiment_echo,
                                   const std::vector<RunOutcome>& outcomes) {
  Json j = Json::object();
  j.set("experiment", experiment_echo);
  j.set("aggregate", aggregate(outcomes).to_json());

  const std::vector<Aggregate> by_variant = aggregate_by_variant(outcomes);
  JsonArray variants;
  for (std::size_t v = 0; v < by_variant.size(); ++v) {
    Json entry = Json::object();
    entry.set("variant", v);
    // All repeats of a variant share its label.
    for (const RunOutcome& o : outcomes) {
      if (o.variant == v) {
        entry.set("label", o.label);
        break;
      }
    }
    entry.set("aggregate", by_variant[v].to_json());
    variants.push_back(std::move(entry));
  }
  j.set("variants", Json(std::move(variants)));

  JsonArray runs;
  for (const RunOutcome& o : outcomes) runs.push_back(o.to_json());
  j.set("runs", Json(std::move(runs)));
  return j;
}

Json BatchRunner::report_json(const ExperimentSpec& experiment, const BatchResult& result,
                              bool include_timing) {
  Json j = report_json_from(experiment.to_json(), result.outcomes);
  if (include_timing) {
    Json timing = Json::object();
    timing.set("threads", result.threads);
    timing.set("wall_seconds", result.wall_seconds);
    // The KAsync selection copy this process runs: on a host without AVX2
    // a KAsync sweep runs the baseline copy, ~1.4x slower at n = 2048.
    timing.set("kasync_selection", sched::selection_copy());
    std::uint64_t activations = 0;
    for (const RunOutcome& o : result.outcomes) activations += o.report.activations;
    timing.set("activations_per_second",
               result.wall_seconds > 0.0 ? static_cast<double>(activations) / result.wall_seconds
                                         : 0.0);
    j.set("timing", timing);
  }
  return j;
}

}  // namespace cohesion::run
