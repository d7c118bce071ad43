// perfbench_driver — times one benchmark workload through the library's
// public entry points, end to end (untraced) and layer by layer (traced).
//
//   perfbench_driver --spec FILE --expect-report FILE --report-out FILE
//                    --seconds S --trace 0|1 [--threads T]
//                    [--spans-out FILE] [--samples-out FILE]
//
// Untraced pass (what a cohesion_run user pays): load_spec_file ->
// ExperimentSpec::from_json -> expand -> BatchRunner::run -> report_json ->
// dump -> write. A stream-mode run is then replayed (StreamTraceReader ->
// OnlineMetrics) and must reproduce the live report.
//
// Traced pass (--trace 1): the same runs, each built with run::instantiate
// and re-wired into an Engine whose scheduler, algorithm and trace sinks sit
// behind timing decorators. Hot per-call times fold into a per-run count and
// total; the coarse boundaries (run, instantiate, run_until, analyze, replay,
// parse_expand, report) are spans kept in memory and written to --spans-out
// at exit. The traced pass reassembles its report through
// BatchRunner::report_json_from, so it must reproduce the untraced bytes.
//
// Every pass is bracketed by a machine-speed probe and its times are
// divided by the slowdown it shows (see machine_slowdown); --samples-out
// keeps each pass's raw wall and slowdown.
//
// Every pass is checked run by run against --expect-report (the
// `cohesion_run --no-timing` bytes for the same spec). The last stdout line
// is one JSON object: metrics (end-to-end with --trace 0, per-layer with
// --trace 1), exact work counts, and the attempted/failed run tallies.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/trace_sink.hpp"
#include "metrics/stats.hpp"
#include "run/batch_runner.hpp"
#include "run/instantiate.hpp"
#include "run/json.hpp"
#include "run/preset.hpp"
#include "run/spec.hpp"
#include "trace/online_metrics.hpp"
#include "trace/stream_reader.hpp"
#include "trace/stream_writer.hpp"

using namespace cohesion;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile (the rule BatchRunner's aggregates use).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank > 0 ? rank - 1 : 0)];
}

const std::vector<geom::Vec2>& reference_points() {
  static const std::vector<geom::Vec2> points = [] {
    std::mt19937_64 rng(3);
    std::uniform_real_distribution<double> u(0.0, 1.55);
    std::vector<geom::Vec2> p(1024);
    for (geom::Vec2& v : p) v = {u(rng), u(rng)};
    return p;
  }();
  return points;
}

/// Speed-probe kernel 1, snapshot-shaped: distance filter and angle sort
/// over 1024 points for 48 observers. Returns seconds taken.
double filter_sort_kernel(double& checksum) {
  const std::vector<geom::Vec2>& points = reference_points();
  const auto t0 = Clock::now();
  std::vector<std::pair<double, std::size_t>> visible;
  double acc = 0.0;
  for (std::size_t i = 0; i < 48; ++i) {
    visible.clear();
    const geom::Vec2 o = points[(i * 37) % points.size()];
    for (std::size_t j = 0; j < points.size(); ++j) {
      const double dx = points[j].x - o.x;
      const double dy = points[j].y - o.y;
      if (std::hypot(dx, dy) <= 1.0) visible.emplace_back(std::atan2(dy, dx), j);
    }
    std::sort(visible.begin(), visible.end());
    for (const auto& [angle, j] : visible) acc += angle * 1e-3 + static_cast<double>(j);
  }
  checksum += acc;
  return seconds_since(t0);
}

/// Speed-probe kernel 2: an all-pairs co-location scan over 700 points and
/// 1e5 seeded uniform draws. Returns seconds taken.
double pairs_draws_kernel(double& checksum) {
  const std::vector<geom::Vec2>& points = reference_points();
  const auto t0 = Clock::now();
  double acc = 0.0;
  for (int rep = 0; rep < 4; ++rep) {
    for (std::size_t i = 0; i < 700; ++i) {
      for (std::size_t j = i + 1; j < 700; ++j) {
        const double dx = points[i].x - points[j].x;
        const double dy = points[i].y - points[j].y;
        if (dx * dx + dy * dy < 1e-4) acc += 1.0;
      }
    }
  }
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int i = 0; i < 100000; ++i) acc += u(rng);
  checksum += acc;
  return seconds_since(t0);
}

/// The kernels' times on the machine the benchmark was defined on (4-core
/// Xeon at 2.0 GHz, no co-tenant load).
constexpr double kFilterSortSeconds = 4.35e-3;
constexpr double kPairsDrawsSeconds = 2.80e-3;

/// How much slower than the reference machine this one runs right now.
/// Co-tenants on a shared host slow this process by up to a quarter for
/// tens of seconds at a time, which would swamp a regression bound. The two
/// probe kernels use no library code, so no change to the library moves
/// them; only the machine does. Measured back to back with the engine,
/// the mean of their two slowdowns tracked both the dense snapshot path and
/// the scheduler-bound path (window-median spread 0.29 -> 0.07 and
/// 0.17 -> 0.02). The kernels run on `threads` threads at once, like the
/// pass they bracket; the result is the median over five rounds. Dividing
/// a time by it gives seconds on the reference machine.
double machine_slowdown(std::size_t threads) {
  std::vector<double> rounds;
  double checksum = 0.0;
  for (int r = 0; r < 5; ++r) {
    std::vector<double> slowdown(threads, 0.0);
    std::vector<double> sums(threads, 0.0);
    const auto probe = [&](std::size_t t) {
      slowdown[t] = 0.5 * (filter_sort_kernel(sums[t]) / kFilterSortSeconds +
                           pairs_draws_kernel(sums[t]) / kPairsDrawsSeconds);
    };
    {
      std::vector<std::jthread> pool;
      for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(probe, t);
      probe(0);
    }
    double total = 0.0;
    for (std::size_t t = 0; t < threads; ++t) {
      total += slowdown[t];
      checksum += sums[t];
    }
    rounds.push_back(total / static_cast<double>(threads));
  }
  if (!std::isfinite(checksum)) throw std::runtime_error("speed probe misbehaved");
  return median(rounds);
}

/// Hot per-call timings, folded at their span boundary into count + total.
struct Fold {
  std::uint64_t calls = 0;
  double seconds = 0.0;

  void add(Clock::time_point t0) {
    seconds += seconds_since(t0);
    ++calls;
  }
};

class TimedScheduler final : public core::Scheduler {
 public:
  TimedScheduler(core::Scheduler& inner, Fold& fold) : inner_(inner), fold_(fold) {}

  std::optional<core::Activation> next(const core::SimulationView& view) override {
    const auto t0 = Clock::now();
    std::optional<core::Activation> a = inner_.next(view);
    fold_.add(t0);
    return a;
  }
  [[nodiscard]] std::string_view name() const override { return inner_.name(); }

 private:
  core::Scheduler& inner_;
  Fold& fold_;
};

class TimedAlgorithm final : public core::Algorithm {
 public:
  TimedAlgorithm(const core::Algorithm& inner, Fold& fold, std::uint64_t& neighbours)
      : inner_(inner), fold_(fold), neighbours_(neighbours) {}

  [[nodiscard]] geom::Vec2 compute(const core::Snapshot& snapshot) const override {
    const auto t0 = Clock::now();
    const geom::Vec2 destination = inner_.compute(snapshot);
    fold_.add(t0);
    neighbours_ += snapshot.size();
    return destination;
  }
  [[nodiscard]] std::string_view name() const override { return inner_.name(); }

 private:
  const core::Algorithm& inner_;
  Fold& fold_;
  std::uint64_t& neighbours_;
};

class TimedSink final : public core::TraceSink {
 public:
  TimedSink(core::TraceSink& inner, Fold& appends) : inner_(inner), appends_(appends) {}

  void append(const core::ActivationRecord& rec) override {
    const auto t0 = Clock::now();
    inner_.append(rec);
    appends_.add(t0);
  }
  void finish() override {
    const auto t0 = Clock::now();
    inner_.finish();
    finish_seconds += seconds_since(t0);
  }

  double finish_seconds = 0.0;

 private:
  core::TraceSink& inner_;
  Fold& appends_;
};

/// One coarse boundary of the traced pass. Spans of one run share its grid
/// index as id; batch-level spans use id -1.
struct Span {
  const char* name;
  long id;
  const char* parent;
  double start;  ///< seconds since the pass began
  double end;
};

template <class Body>
double span(std::vector<Span>& out, const char* name, long id, const char* parent,
            Clock::time_point origin, Body&& body) {
  const double start = seconds_since(origin);
  body();
  const double end = seconds_since(origin);
  out.push_back({name, id, parent, start, end});
  return end - start;
}

/// What the traced pass measured for one run.
struct RunLayers {
  Fold sched, algo, write, online, read;
  std::uint64_t neighbours = 0;
  std::uint64_t activations = 0;
  std::uint64_t trace_bytes = 0;
  std::uint64_t records_read = 0;
  double instantiate_s = 0.0;
  double run_until_s = 0.0;
  double analyze_s = 0.0;
  double write_finish_s = 0.0;
  std::vector<Span> spans;
};

run::ExperimentSpec load_experiment(const std::string& path) {
  const run::Json doc = run::load_spec_file(path);
  if (!doc.contains("base")) throw std::runtime_error(path + ": expected an ExperimentSpec");
  run::ExperimentSpec exp = run::ExperimentSpec::from_json(doc);
  if (exp.early_stop.enabled()) {
    throw std::runtime_error(path + ": the traced pass does not model early_stop");
  }
  return exp;
}

/// Replays a stream-mode outcome's trace file through OnlineMetrics. True iff
/// the stream closed cleanly, carries the run's fingerprint and reproduces
/// the live outcome byte for byte. `read` folds every StreamTraceReader::next.
bool replay_matches(const run::RunOutcome& live, Fold& read, std::uint64_t& records) {
  trace::StreamTraceReader reader(live.trace_path);
  const trace::StreamHeader& h = reader.header();
  trace::OnlineMetrics online(h.initial, h.visibility_radius, h.stop_epsilon);
  core::ActivationRecord rec;
  for (;;) {
    const auto t0 = Clock::now();
    const bool more = reader.next(rec);
    read.add(t0);
    if (!more) break;
    online.append(rec);
  }
  records += reader.records_read();
  run::RunOutcome replayed = live;
  replayed.report = online.report();
  return reader.closed_cleanly() &&
         run::fingerprint_hex(h.fingerprint) == live.trace_fingerprint &&
         replayed.to_json().dump() == live.to_json().dump();
}

/// One run of the traced pass: BatchRunner's execute(), with the engine
/// rebuilt around the timing decorators.
void traced_run(const run::ExpandedRun& run, Clock::time_point origin, RunLayers& layers,
                run::RunOutcome& out) {
  const auto id = static_cast<long>(run.index);
  const double start = seconds_since(origin);
  const run::RunSpec& spec = run.spec;
  out.index = run.index;
  out.variant = run.variant;
  out.repeat = run.repeat;
  out.label = run.label;
  out.seed = spec.seed;
  try {
    run::RunInstance inst;
    layers.instantiate_s = span(layers.spans, "instantiate", id, "run", origin,
                                [&] { inst = run::instantiate(spec); });
    inst.engine.reset();  // rebuilt below around the decorators
    out.n = inst.initial.size();
    TimedScheduler scheduler(*inst.scheduler, layers.sched);
    TimedAlgorithm algorithm(*inst.algorithm, layers.algo, layers.neighbours);
    core::Engine engine(inst.initial, algorithm, scheduler, inst.config);
    if (spec.trace.mode == "memory") {
      layers.run_until_s = span(layers.spans, "run_until", id, "run", origin,
                                [&] { out.converged = engine.run_until(spec.stop); });
      layers.analyze_s = span(layers.spans, "analyze", id, "run", origin, [&] {
        out.report = metrics::analyze(engine.trace(), spec.visibility_radius, spec.stop.epsilon);
      });
    } else {
      // BatchRunner's bounded-memory wiring: optional stream writer, then
      // online metrics, fanned out by a TeeSink.
      trace::OnlineMetrics online(inst.initial, spec.visibility_radius, spec.stop.epsilon);
      std::optional<trace::StreamTraceWriter> writer;
      std::optional<TimedSink> timed_writer;
      std::vector<core::TraceSink*> sinks;
      if (spec.trace.mode == "stream") {
        const std::uint64_t fp = run::spec_fingerprint(spec);
        trace::StreamHeader header;
        header.fingerprint = fp;
        header.initial = inst.initial;
        header.visibility_radius = spec.visibility_radius;
        header.stop_epsilon = spec.stop.epsilon;
        trace::StreamWriterOptions wopts;
        wopts.flush_every_records = spec.trace.flush_every;
        wopts.index_every_records = spec.trace.index_every;
        writer.emplace(spec.trace.path, std::move(header), wopts);
        timed_writer.emplace(*writer, layers.write);
        sinks.push_back(&*timed_writer);
        out.trace_path = spec.trace.path;
        out.trace_fingerprint = run::fingerprint_hex(fp);
      }
      TimedSink timed_online(online, layers.online);
      sinks.push_back(&timed_online);
      core::TeeSink tee(std::move(sinks));
      engine.set_trace_sink(&tee);
      layers.run_until_s = span(layers.spans, "run_until", id, "run", origin,
                                [&] { out.converged = engine.run_until(spec.stop); });
      if (timed_writer) {
        timed_writer->finish();
        layers.write_finish_s = timed_writer->finish_seconds;
      }
      // The online report is this mode's analyze.
      layers.analyze_s = span(layers.spans, "analyze", id, "run", origin,
                              [&] { out.report = online.report(); });
      if (writer) {
        layers.trace_bytes = std::filesystem::file_size(spec.trace.path);
        bool same = false;
        span(layers.spans, "replay", id, "run", origin,
             [&] { same = replay_matches(out, layers.read, layers.records_read); });
        if (!same) out.error = "replay does not reproduce the live report";
      }
    }
    layers.activations = out.report.activations;
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  layers.spans.push_back({"run", id, "", start, seconds_since(origin)});
}

struct Options {
  std::string spec;
  std::string expect_report;
  std::string report_out;
  std::string spans_out;
  std::string samples_out;
  std::size_t threads = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Set-up repetitions before every pass: spread over the whole run, so one
/// noisy moment cannot own the setup_s median.
constexpr std::size_t kSetupReps = 5;

/// Per-run outcome JSON of the expected report, in grid order.
std::vector<std::string> outcome_dumps(const run::Json& report) {
  std::vector<std::string> out;
  for (const run::Json& o : report.at("runs").items()) out.push_back(o.dump());
  return out;
}

/// Tallies each pass against the expected report: errored runs plus runs
/// whose outcome differs, or every run when the report bytes differ anyway.
struct Tally {
  std::string expected_bytes;
  std::vector<std::string> expected_runs;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(const std::string& bytes, const std::vector<run::RunOutcome>& outcomes) {
    attempted += outcomes.size();
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (!outcomes[i].error.empty() || i >= expected_runs.size() ||
          outcomes[i].to_json().dump() != expected_runs[i]) {
        ++bad;
      }
    }
    if (bad == 0 && bytes != expected_bytes) bad = outcomes.size();
    failed += bad;
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

double setup_once(const std::string& spec) {
  const auto t0 = Clock::now();
  const run::ExperimentSpec exp = load_experiment(spec);
  const std::vector<run::ExpandedRun> runs = exp.expand();
  const run::RunInstance inst = run::instantiate(runs.front().spec);
  return seconds_since(t0);
}

struct Untraced {
  double speed = 1.0;       ///< machine_slowdown around the pass
  double wall = 0.0;        ///< spec in -> report written (-> replay verified)
  double batch_wall = 0.0;  ///< BatchResult::wall_seconds
  double pool_wait = 0.0;   ///< threads x batch wall - sum of run walls
  std::uint64_t activations = 0;
  std::size_t runs = 0;
  std::vector<double> run_walls;
};

Untraced untraced_pass(const Options& opt, Tally& tally) {
  Untraced u;
  const auto t0 = Clock::now();
  const run::ExperimentSpec exp = load_experiment(opt.spec);
  const std::vector<run::ExpandedRun> runs = exp.expand();
  run::BatchRunner::Options bo;
  bo.threads = opt.threads;
  run::BatchResult result = run::BatchRunner(bo).run(runs, exp.early_stop);
  const std::string bytes = run::BatchRunner::report_json(exp, result, false).dump(2) + "\n";
  write_file(opt.report_out, bytes);
  for (run::RunOutcome& o : result.outcomes) {
    if (o.trace_path.empty() || !o.error.empty()) continue;
    Fold read;
    std::uint64_t records = 0;
    try {
      if (!replay_matches(o, read, records)) o.error = "replay does not reproduce the live report";
    } catch (const std::exception& e) {
      o.error = e.what();
    }
  }
  u.wall = seconds_since(t0);
  u.batch_wall = result.wall_seconds;
  u.runs = result.outcomes.size();
  double busy = 0.0;
  for (const run::RunOutcome& o : result.outcomes) {
    u.activations += o.report.activations;
    u.run_walls.push_back(o.wall_seconds);
    busy += o.wall_seconds;
  }
  u.pool_wait = static_cast<double>(result.threads) * result.wall_seconds - busy;
  tally.check(bytes, result.outcomes);
  return u;
}

/// Sums over one traced pass.
struct Traced {
  double speed = 1.0;  ///< machine_slowdown around the pass
  double wall = 0.0;
  double parse_expand_s = 0.0;
  double report_s = 0.0;
  std::vector<RunLayers> runs;
  std::vector<Span> batch_spans;
};

Traced traced_pass(const Options& opt, Tally& tally) {
  Traced t;
  const auto origin = Clock::now();
  run::ExperimentSpec exp;
  std::vector<run::ExpandedRun> runs;
  t.parse_expand_s = span(t.batch_spans, "parse_expand", -1, "", origin, [&] {
    exp = load_experiment(opt.spec);
    runs = exp.expand();
  });
  t.runs.resize(runs.size());
  std::vector<run::RunOutcome> outcomes(runs.size());
  // Same claim discipline as BatchRunner: a shared counter, one slot per run.
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < runs.size(); i = next.fetch_add(1)) {
      traced_run(runs[i], origin, t.runs[i], outcomes[i]);
    }
  };
  const std::size_t threads =
      std::clamp<std::size_t>(opt.threads, 1, std::max<std::size_t>(runs.size(), 1));
  {
    std::vector<std::jthread> pool;
    for (std::size_t i = 1; i < threads; ++i) pool.emplace_back(worker);
    worker();
  }
  std::string bytes;
  t.report_s = span(t.batch_spans, "report", -1, "", origin, [&] {
    bytes = run::BatchRunner::report_json_from(exp.to_json(), outcomes).dump(2) + "\n";
  });
  t.wall = seconds_since(origin);
  tally.check(bytes, outcomes);
  return t;
}

/// Per-layer sums of one traced pass.
struct LayerTotals {
  double sched_s = 0, algo_s = 0, write_s = 0, online_s = 0, read_s = 0;
  double run_until_s = 0, analyze_s = 0, instantiate_s = 0, write_finish_s = 0;
  std::uint64_t sched_calls = 0, algo_calls = 0, write_calls = 0, online_calls = 0;
  std::uint64_t neighbours = 0, activations = 0, trace_bytes = 0, records_read = 0;

  explicit LayerTotals(const Traced& t) {
    for (const RunLayers& r : t.runs) {
      sched_s += r.sched.seconds;
      sched_calls += r.sched.calls;
      algo_s += r.algo.seconds;
      algo_calls += r.algo.calls;
      write_s += r.write.seconds;
      write_calls += r.write.calls;
      online_s += r.online.seconds;
      online_calls += r.online.calls;
      read_s += r.read.seconds;
      run_until_s += r.run_until_s;
      analyze_s += r.analyze_s;
      instantiate_s += r.instantiate_s;
      write_finish_s += r.write_finish_s;
      neighbours += r.neighbours;
      activations += r.activations;
      trace_bytes += r.trace_bytes;
      records_read += r.records_read;
    }
    for (double* s : {&sched_s, &algo_s, &write_s, &online_s, &read_s, &run_until_s, &analyze_s,
                      &instantiate_s, &write_finish_s}) {
      *s /= t.speed;
    }
  }
  [[nodiscard]] double core_self_s() const {
    return run_until_s - sched_s - algo_s - write_s - online_s;
  }
  /// The exact work counts: identical on every pass of one binary and seed.
  [[nodiscard]] run::Json counts(std::size_t runs) const {
    run::Json c = run::Json::object();
    c.set("sched.next_calls", sched_calls);
    c.set("algo.compute_calls", algo_calls);
    c.set("algo.neighbours", neighbours);
    c.set("core.activations", activations);
    c.set("trace.appends", write_calls);
    c.set("trace.bytes", trace_bytes);
    c.set("trace.records_read", records_read);
    c.set("run.instantiate_calls", runs);
    return c;
  }
};

double per_ns(double seconds, std::uint64_t calls) {
  return calls == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(calls);
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

void put(run::Json& metrics, const char* name, double value, const char* unit) {
  run::Json m = run::Json::object();
  m.set("value", value);
  m.set("unit", unit);
  metrics.set(name, std::move(m));
}

void write_spans(const std::string& path, const std::vector<Traced>& passes) {
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const auto line = [&](const Span& s) {
      run::Json j = run::Json::object();
      j.set("pass", p);
      j.set("name", s.name);
      j.set("id", static_cast<long long>(s.id));
      j.set("parent", s.parent);
      j.set("start_s", s.start);
      j.set("end_s", s.end);
      out << j.dump() << '\n';
    };
    for (const Span& s : passes[p].batch_spans) line(s);
    for (const RunLayers& r : passes[p].runs) {
      for (const Span& s : r.spans) line(s);
      // Hot calls folded at the run_until boundary.
      run::Json f = run::Json::object();
      f.set("pass", p);
      f.set("name", "folds");
      f.set("id", static_cast<long long>(r.spans.empty() ? -1 : r.spans.back().id));
      f.set("parent", "run_until");
      const std::pair<const char*, const Fold*> folds[] = {
          {"sched.next", &r.sched},   {"algo.compute", &r.algo},
          {"trace.append", &r.write}, {"metrics.online_append", &r.online},
          {"trace.read", &r.read}};
      for (const auto& [name, fold] : folds) {
        f.set(std::string(name) + "_calls", fold->calls);
        f.set(std::string(name) + "_s", fold->seconds);
      }
      out << f.dump() << '\n';
    }
  }
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

/// Raw per-pass walls next to the speed probes that scale them.
void write_samples(const std::string& path, const std::vector<Untraced>& plain,
                   const std::vector<Traced>& traced) {
  const auto pass = [](const char* kind, double wall, double speed) {
    run::Json j = run::Json::object();
    j.set("pass", kind);
    j.set("wall_s", wall);
    j.set("slowdown", speed);
    return j;
  };
  run::JsonArray passes;
  for (const Untraced& u : plain) passes.push_back(pass("untraced", u.wall, u.speed));
  for (const Traced& t : traced) passes.push_back(pass("traced", t.wall, t.speed));
  write_file(path, run::Json(std::move(passes)).dump(1) + "\n");
}

int usage() {
  std::cerr << "usage: perfbench_driver --spec FILE --expect-report FILE --report-out FILE\n"
               "                        --seconds S --trace 0|1 [--threads T]\n"
               "                        [--spans-out FILE] [--samples-out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const std::string value = argv[i + 1];
    if (arg == "--spec") {
      opt.spec = value;
    } else if (arg == "--expect-report") {
      opt.expect_report = value;
    } else if (arg == "--report-out") {
      opt.report_out = value;
    } else if (arg == "--spans-out") {
      opt.spans_out = value;
    } else if (arg == "--samples-out") {
      opt.samples_out = value;
    } else if (arg == "--threads") {
      opt.threads = std::max<std::size_t>(std::stoul(value), 1);
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (arg == "--trace") {
      opt.trace = value == "1";
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || opt.spec.empty() || opt.expect_report.empty() || opt.report_out.empty()) {
    return usage();
  }

  try {
    Tally tally;
    tally.expected_bytes = read_file(opt.expect_report);
    tally.expected_runs = outcome_dumps(run::Json::parse(tally.expected_bytes));

    // Untraced passes take the whole budget with --trace 0 and a third of
    // it with --trace 1; traced passes (at least two, for the count gate)
    // take the rest. A speed probe runs before every pass and after the
    // last; a pass is scaled by the mean of the probes around it, the
    // set-up repetitions before it by the probe just before them.
    const auto t0 = Clock::now();
    const double untraced_budget = opt.trace ? opt.seconds / 3.0 : opt.seconds;
    std::vector<double> setups;
    double before = machine_slowdown(opt.threads);
    const auto measure = [&](auto&& pass) {
      for (std::size_t i = 0; i < kSetupReps; ++i) {
        setups.push_back(setup_once(opt.spec) / before);
      }
      auto p = pass(opt, tally);
      const double after = machine_slowdown(opt.threads);
      p.speed = 0.5 * (before + after);
      before = after;
      return p;
    };
    std::vector<Untraced> plain;
    while (plain.size() < (opt.trace ? 1u : 2u) || seconds_since(t0) < untraced_budget) {
      plain.push_back(measure(untraced_pass));
    }
    std::vector<Traced> traced;
    while (opt.trace && (traced.size() < 2 || seconds_since(t0) < opt.seconds)) {
      traced.push_back(measure(traced_pass));
    }
    if (!opt.samples_out.empty()) write_samples(opt.samples_out, plain, traced);

    const auto collect = [&](auto&& f) {
      std::vector<double> v;
      for (const Untraced& u : plain) v.push_back(f(u));
      return v;
    };
    const auto untraced_wall = [](const Untraced& u) { return u.wall / u.speed; };
    run::Json metrics = run::Json::object();
    run::Json counts = run::Json::object();
    bool counts_stable = true;
    counts.set("runs", plain.front().runs);
    counts.set("report.activations", plain.front().activations);
    for (const Untraced& u : plain) {
      counts_stable = counts_stable && u.activations == plain.front().activations;
    }

    if (!opt.trace) {
      std::vector<double> latencies;
      for (const Untraced& u : plain) {
        for (const double w : u.run_walls) latencies.push_back(w / u.speed);
      }
      struct rusage ru {};
      getrusage(RUSAGE_SELF, &ru);
      put(metrics, "setup_s", median(setups), "s");
      put(metrics, "wall_s", median(collect(untraced_wall)), "s");
      put(metrics, "activations_per_s", median(collect([](const Untraced& u) {
            return static_cast<double>(u.activations) * u.speed / u.batch_wall;
          })), "1/s");
      put(metrics, "runs_per_s", median(collect([](const Untraced& u) {
            return static_cast<double>(u.runs) * u.speed / u.wall;
          })), "1/s");
      put(metrics, "run_latency_p50_ms", 1e3 * percentile(latencies, 50.0), "ms");
      put(metrics, "run_latency_p90_ms", 1e3 * percentile(latencies, 90.0), "ms");
      put(metrics, "peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
    } else {
      std::vector<LayerTotals> totals;
      for (const Traced& t : traced) totals.emplace_back(t);
      const std::size_t runs = traced.front().runs.size();
      const run::Json first_counts = totals.front().counts(runs);
      for (const LayerTotals& l : totals) {
        counts_stable = counts_stable && l.counts(runs) == first_counts;
      }
      for (const auto& [k, v] : first_counts.entries()) counts.set(k, v);
      const LayerTotals& c = totals.front();  // exact counts: same on every pass
      const auto med = [&](auto&& f) {
        std::vector<double> v;
        for (const LayerTotals& l : totals) v.push_back(f(l));
        return median(v);
      };
      const auto med_s = [&](double LayerTotals::*seconds) {
        return med([&](const LayerTotals& l) { return l.*seconds; });
      };
      std::vector<double> traced_walls;
      std::vector<double> parse_expand;
      std::vector<double> report;
      for (const Traced& t : traced) {
        traced_walls.push_back(t.wall / t.speed);
        parse_expand.push_back(t.parse_expand_s / t.speed);
        report.push_back(t.report_s / t.speed);
      }
      put(metrics, "sched.next_s", med_s(&LayerTotals::sched_s), "s");
      put(metrics, "sched.next_calls", static_cast<double>(c.sched_calls), "count");
      put(metrics, "sched.ns_per_next",
          med([](const LayerTotals& l) { return per_ns(l.sched_s, l.sched_calls); }), "ns");
      put(metrics, "core.run_until_s", med_s(&LayerTotals::run_until_s), "s");
      put(metrics, "core.self_s", med([](const LayerTotals& l) { return l.core_self_s(); }), "s");
      put(metrics, "core.self_ns_per_activation",
          med([](const LayerTotals& l) { return per_ns(l.core_self_s(), l.activations); }), "ns");
      put(metrics, "core.activations", static_cast<double>(c.activations), "count");
      put(metrics, "algo.compute_s", med_s(&LayerTotals::algo_s), "s");
      put(metrics, "algo.compute_calls", static_cast<double>(c.algo_calls), "count");
      put(metrics, "algo.ns_per_compute",
          med([](const LayerTotals& l) { return per_ns(l.algo_s, l.algo_calls); }), "ns");
      put(metrics, "algo.neighbours_per_compute", ratio(c.neighbours, c.algo_calls), "count");
      put(metrics, "metrics.analyze_s", med_s(&LayerTotals::analyze_s), "s");
      put(metrics, "metrics.online_ns_per_append",
          med([](const LayerTotals& l) { return per_ns(l.online_s, l.online_calls); }), "ns");
      put(metrics, "trace.write_ns_per_append",
          med([](const LayerTotals& l) { return per_ns(l.write_s, l.write_calls); }), "ns");
      put(metrics, "trace.finish_s", med_s(&LayerTotals::write_finish_s), "s");
      put(metrics, "trace.bytes_per_activation", ratio(c.trace_bytes, c.activations), "bytes");
      put(metrics, "trace.read_ns_per_record",
          med([](const LayerTotals& l) { return per_ns(l.read_s, l.records_read); }), "ns");
      put(metrics, "trace.records_read", static_cast<double>(c.records_read), "count");
      put(metrics, "run.parse_expand_s", median(parse_expand), "s");
      put(metrics, "run.instantiate_s", med_s(&LayerTotals::instantiate_s), "s");
      put(metrics, "run.instantiate_calls", static_cast<double>(runs), "count");
      put(metrics, "run.report_s", median(report), "s");
      put(metrics, "run.pool_wait_s",
          median(collect([](const Untraced& u) { return u.pool_wait / u.speed; })), "s");
      put(metrics, "trace_overhead_ratio", median(traced_walls) / median(collect(untraced_wall)),
          "ratio");
      put(metrics, "run_failure_ratio", ratio(tally.failed, tally.attempted), "ratio");
      if (!opt.spans_out.empty()) write_spans(opt.spans_out, traced);
    }

    run::Json result = run::Json::object();
    result.set("attempted", tally.attempted);
    result.set("failed", tally.failed);
    result.set("counts_stable", counts_stable);
    result.set("counts", std::move(counts));
    result.set("metrics", std::move(metrics));
    std::cout << result.dump() << '\n';
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
}
