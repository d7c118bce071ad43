// The bit-identity contract of the streaming metrics path: the report
// folded online (live at the engine sink, or replayed from a stream file)
// must equal metrics::analyze on the materialized Trace field for field —
// exact double equality, no tolerances. 200 seeds sweep schedulers,
// algorithms and configurations through the full
// writer -> reader -> accumulator round trip.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "algo/baselines.hpp"
#include "algo/kknps.hpp"
#include "core/engine.hpp"
#include "core/trace_sink.hpp"
#include "metrics/configurations.hpp"
#include "metrics/online.hpp"
#include "metrics/stats.hpp"
#include "oracles/analyze_oracle.hpp"
#include "oracles/stretch_oracle.hpp"
#include "sched/asynchronous.hpp"
#include "sched/synchronous.hpp"
#include "trace/online_metrics.hpp"
#include "trace/stream_reader.hpp"
#include "trace/stream_writer.hpp"

namespace cohesion::trace {
namespace {

namespace fs = std::filesystem;
using geom::Vec2;

class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_(
            (fs::temp_directory_path() / ("cohesion_online_test_" + tag + ".cohtrace")).string()) {}
  ~TempFile() { fs::remove(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::unique_ptr<core::Scheduler> make_scheduler(std::uint64_t seed, std::size_t n) {
  switch (seed % 4) {
    case 0:
      return std::make_unique<sched::FSyncScheduler>(n);
    case 1: {
      sched::SSyncScheduler::Params p;
      p.seed = seed;
      p.xi = seed % 3 == 0 ? 0.5 : 1.0;
      return std::make_unique<sched::SSyncScheduler>(n, p);
    }
    case 2: {
      sched::KAsyncScheduler::Params p;
      p.seed = seed;
      p.k = 1 + seed % 3;
      return std::make_unique<sched::KAsyncScheduler>(n, p);
    }
    default: {
      sched::KNestAScheduler::Params p;
      p.seed = seed;
      p.k = 1 + seed % 2;
      return std::make_unique<sched::KNestAScheduler>(n, p);
    }
  }
}

std::unique_ptr<core::Algorithm> make_algorithm(std::uint64_t seed) {
  switch (seed % 3) {
    case 0:
      return std::make_unique<algo::KknpsAlgorithm>(algo::KknpsAlgorithm::Params{.k = 1});
    case 1:
      return std::make_unique<algo::AndoAlgorithm>(1.0);
    default:
      return std::make_unique<algo::CogAlgorithm>();
  }
}

std::vector<Vec2> make_initial(std::uint64_t seed, std::size_t n, double v) {
  switch (seed % 3) {
    case 0:
      return metrics::random_connected_configuration(n, 0.4 * std::sqrt(double(n)), v, seed + 1);
    case 1:
      return metrics::line_configuration(n, v);
    default:
      return metrics::grid_configuration(n, 0.8 * v);
  }
}

void expect_identical_reports(const metrics::ConvergenceReport& a,
                              const metrics::ConvergenceReport& b, std::uint64_t seed,
                              const char* what) {
  EXPECT_EQ(a.converged, b.converged) << what << " seed " << seed;
  EXPECT_EQ(a.initial_diameter, b.initial_diameter) << what << " seed " << seed;
  EXPECT_EQ(a.final_diameter, b.final_diameter) << what << " seed " << seed;
  EXPECT_EQ(a.rounds, b.rounds) << what << " seed " << seed;
  EXPECT_EQ(a.rounds_to_halve, b.rounds_to_halve) << what << " seed " << seed;
  EXPECT_EQ(a.activations, b.activations) << what << " seed " << seed;
  EXPECT_EQ(a.cohesive, b.cohesive) << what << " seed " << seed;
  EXPECT_EQ(a.worst_stretch, b.worst_stretch) << what << " seed " << seed;
}

TEST(OnlineMetrics, TwoHundredSeedStreamRoundTripIsByteIdentical) {
  // The ISSUE-mandated sweep: materialize a trace, prove the single-pass
  // analyze() against the rescan oracle, then push the records through
  // writer -> file -> reader -> accumulator and demand the same bytes.
  TempFile file("roundtrip");
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const std::size_t n = 6 + seed % 14;
    const double v = 1.0;
    const double epsilon = 0.05;
    auto initial = make_initial(seed, n, v);
    auto algorithm = make_algorithm(seed);
    auto scheduler = make_scheduler(seed, n);
    core::EngineConfig config;
    config.seed = seed;
    core::Engine engine(initial, *algorithm, *scheduler, config);
    engine.run(200 + (seed % 4) * 100);
    const core::Trace& trace = engine.trace();

    const metrics::ConvergenceReport reference = metrics::analyze(trace, v, epsilon);
    const metrics::ConvergenceReport oracle = oracles::analyze_rescan(trace, v, epsilon);
    expect_identical_reports(reference, oracle, seed, "analyze vs rescan");

    StreamHeader header;
    header.fingerprint = seed;
    header.initial = trace.initial_configuration();
    header.visibility_radius = v;
    header.stop_epsilon = epsilon;
    {
      StreamTraceWriter writer(file.path(), header,
                               {.flush_every_records = 32, .index_every_records = 64});
      for (const core::ActivationRecord& rec : trace.records()) writer.append(rec);
      writer.finish();
    }

    StreamTraceReader reader(file.path());
    metrics::ConvergenceAccumulator acc(reader.header().initial, reader.header().visibility_radius,
                                        reader.header().stop_epsilon);
    core::ActivationRecord rec;
    while (reader.next(rec)) acc.add(rec);
    ASSERT_TRUE(reader.closed_cleanly()) << "seed " << seed;
    ASSERT_EQ(reader.records_read(), trace.records().size()) << "seed " << seed;
    const metrics::ConvergenceReport replayed = acc.finish();
    expect_identical_reports(replayed, reference, seed, "stream replay");
  }
}

TEST(OnlineMetrics, LiveSinkOnBoundedEngineMatchesMemoryPath) {
  // The production wiring: a record_history = false engine feeding
  // OnlineMetrics through its sink must reproduce the memory engine's
  // report, end time and final configuration exactly.
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    const std::size_t n = 8 + seed % 9;
    const double v = 1.0;
    const double epsilon = 0.05;
    auto initial = make_initial(seed, n, v);
    auto algorithm = make_algorithm(seed);
    core::EngineConfig config;
    config.seed = seed;

    auto sched_mem = make_scheduler(seed, n);
    core::Engine memory(initial, *algorithm, *sched_mem, config);

    auto sched_stream = make_scheduler(seed, n);
    config.record_history = false;
    core::Engine bounded(initial, *algorithm, *sched_stream, config);
    OnlineMetrics online(initial, v, epsilon);
    core::Trace shadow(initial);  // external materialization through the seam
    std::vector<core::TraceSink*> sinks = {&online, &shadow};
    core::TeeSink tee(sinks);
    bounded.set_trace_sink(&tee);

    const std::size_t steps = 300;
    ASSERT_EQ(memory.run(steps), bounded.run(steps)) << "seed " << seed;
    tee.finish();

    // The seam forwards every record unchanged...
    ASSERT_EQ(shadow.records().size(), memory.trace().records().size()) << "seed " << seed;
    for (std::size_t i = 0; i < shadow.records().size(); ++i) {
      EXPECT_EQ(shadow.records()[i].activation.t_look,
                memory.trace().records()[i].activation.t_look)
          << "seed " << seed << " rec " << i;
      EXPECT_EQ(shadow.records()[i].realized, memory.trace().records()[i].realized)
          << "seed " << seed << " rec " << i;
    }
    // ...the bounded engine keeps no history of its own...
    EXPECT_TRUE(bounded.trace().records().empty()) << "seed " << seed;
    EXPECT_EQ(bounded.end_time(), memory.end_time()) << "seed " << seed;
    const auto cfg_mem = memory.current_configuration();
    const auto cfg_bounded = bounded.current_configuration();
    ASSERT_EQ(cfg_mem.size(), cfg_bounded.size()) << "seed " << seed;
    for (std::size_t r = 0; r < cfg_mem.size(); ++r) {
      EXPECT_EQ(cfg_mem[r], cfg_bounded[r]) << "seed " << seed << " robot " << r;
    }
    // ...and the live report equals the batch one.
    const metrics::ConvergenceReport reference = metrics::analyze(memory.trace(), v, epsilon);
    expect_identical_reports(online.report(), reference, seed, "live sink");
  }
}

TEST(OnlineMetrics, AccumulatorSideChannelsMatchTrace) {
  const std::uint64_t seed = 6;  // KAsync (seed % 4 == 2): distinct look times
  const std::size_t n = 12;
  const double v = 1.0;
  const double epsilon = 0.05;
  auto initial = make_initial(seed, n, v);
  auto algorithm = make_algorithm(seed);
  auto scheduler = make_scheduler(seed, n);
  core::EngineConfig config;
  config.seed = seed;
  core::Engine engine(initial, *algorithm, *scheduler, config);
  engine.run(400);
  const core::Trace& trace = engine.trace();

  // The accumulator fed straight from a materialized trace (no sink in
  // between) folds the report analyze() computes from it.
  metrics::ConvergenceAccumulator acc(trace.initial_configuration(), v, epsilon);
  for (const core::ActivationRecord& rec : trace.records()) acc.add(rec);
  expect_identical_reports(acc.finish(), metrics::analyze(trace, v, epsilon), seed,
                           "accumulator");
}

TEST(OnlineMetrics, BackwardLookWithinSlackMatchesOracle) {
  // Looks up to 1e-12 before the frontier (legal per the scheduler
  // contract) drive the accumulator's deferred-finalization logic: a
  // pending round-boundary sample must only finalize once a record's Look
  // time provably clears it. The scripted run from the engine-equivalence
  // suite exercises exactly that; the online report must still match.
  const algo::CogAlgorithm cog;
  const std::vector<Vec2> initial{{0.0, 0.0}, {0.6, 0.0}, {0.3, 0.5}, {-0.4, 0.2}};
  const double eps = 5e-13;
  const std::vector<core::Activation> script{
      {0, 1.0, 1.1, 1.6, 1.0},
      {1, 1.0 - eps, 1.0, 1.4, 1.0},
      {2, 1.0 - eps / 2, 1.2, 1.5, 0.7},
      {3, 2.0, 2.1, 2.4, 1.0},
      {0, 3.0, 3.0, 3.3, 1.0},
      {1, 3.0 - eps, 3.1, 3.2, 1.0},
      {2, 4.0, 4.0, 4.0, 1.0},
      {3, 4.0, 4.2, 4.6, 1.0},
      {0, 5.0, 5.1, 5.2, 1.0},
      {1, 5.0 - 9e-13, 5.0, 5.1, 1.0},
      {2, 5.0 - 1.8e-12, 5.3, 5.4, 1.0},
  };
  core::EngineConfig cfg;
  cfg.visibility.radius = 1.0;
  cfg.error.random_rotation = false;

  sched::ScriptedScheduler sched_mem(script);
  core::Engine memory(initial, cog, sched_mem, cfg);
  ASSERT_EQ(memory.run(script.size()), script.size());

  sched::ScriptedScheduler sched_live(script);
  cfg.record_history = false;
  core::Engine bounded(initial, cog, sched_live, cfg);
  OnlineMetrics online(initial, 1.0, 0.05);
  bounded.set_trace_sink(&online);
  ASSERT_EQ(bounded.run(script.size()), script.size());

  const metrics::ConvergenceReport reference = metrics::analyze(memory.trace(), 1.0, 0.05);
  expect_identical_reports(reference, oracles::analyze_rescan(memory.trace(), 1.0, 0.05), 0,
                           "scripted rescan");
  expect_identical_reports(online.report(), reference, 0, "scripted live");
}

TEST(OnlineMetrics, TwoCyclesWithinTheSlackExhaustTheAccumulatorsHistory) {
  // Robot 1's Look within kLookSlack before robot 0's two zero-length
  // cycles at t = 5 completes a round ending at that Look, so the new
  // sample needs robot 0 two segments back — beyond the accumulator's
  // current + previous segment. It must refuse, naming robot and time.
  const std::vector<Vec2> initial{{0.0, 0.0}, {0.5, 0.0}};
  const double late = 5.0 - 9e-13;
  const auto record = [&](core::RobotId r, core::Time t) {
    return core::ActivationRecord{{r, t, t, t, 1.0}, initial[r], initial[r], initial[r], 1};
  };
  metrics::ConvergenceAccumulator acc(initial, 1.0, 0.05);
  acc.add(record(0, 1.0));
  acc.add(record(0, 5.0));
  acc.add(record(0, 5.0));
  try {
    acc.add(record(1, late));
    FAIL() << "the accumulator answered a position two segments back";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("robot 0 "), std::string::npos) << what;
    EXPECT_NE(what.find("t=4.9999999999991"), std::string::npos) << what;
  }
}

TEST(OnlineMetrics, DenseStartStreamedMatchesMemoryAndRescan) {
  // Contract 10 at the density perfbench's dense_fsync runs: a lattice at
  // spacing 0.05 V gives every robot hundreds of initially-visible pairs,
  // so the stretch metric sweeps hundreds of thousands of pairs per sample.
  // Live-streamed, in-memory and rescan reports must agree exactly, and
  // the worst stretch must equal the pairwise reference over the samples.
  const double v = 1.0;
  const double epsilon = 0.05;
  for (const std::size_t n : {64u, 300u, 1024u}) {
    for (const bool fsync : {true, false}) {
      SCOPED_TRACE(std::string(fsync ? "FSync" : "KAsync") + " n " + std::to_string(n));
      const auto initial = metrics::grid_configuration(n, 0.05 * v);
      const algo::KknpsAlgorithm algorithm(algo::KknpsAlgorithm::Params{.k = 1});
      const auto scheduler = [&]() -> std::unique_ptr<core::Scheduler> {
        if (fsync) return std::make_unique<sched::FSyncScheduler>(n);
        sched::KAsyncScheduler::Params p;
        p.seed = n;
        p.k = 2;
        return std::make_unique<sched::KAsyncScheduler>(n, p);
      };
      core::EngineConfig config;
      config.seed = n;
      const std::size_t steps = (fsync ? 3 : 2) * n;

      auto sched_mem = scheduler();
      core::Engine memory(initial, algorithm, *sched_mem, config);
      ASSERT_EQ(memory.run(steps), steps);

      auto sched_live = scheduler();
      config.record_history = false;
      core::Engine bounded(initial, algorithm, *sched_live, config);
      OnlineMetrics online(initial, v, epsilon);
      bounded.set_trace_sink(&online);
      ASSERT_EQ(bounded.run(steps), steps);

      const core::Trace& trace = memory.trace();
      const metrics::ConvergenceReport reference = metrics::analyze(trace, v, epsilon);
      ASSERT_GE(reference.rounds, 1u);
      expect_identical_reports(oracles::analyze_rescan(trace, v, epsilon), reference, n,
                               "dense rescan");
      expect_identical_reports(online.report(), reference, n, "dense live");

      std::vector<core::Time> samples = trace.round_boundaries();
      samples.push_back(trace.end_time() + 1.0);
      double worst = 0.0;
      for (const core::Time t : samples) {
        worst = std::max(worst, oracles::worst_initial_pair_stretch(
                                    initial, trace.configuration(t), v));
      }
      EXPECT_EQ(reference.worst_stretch, worst);
    }
  }
}

TEST(OnlineMetrics, FinishTwiceThrows) {
  metrics::ConvergenceAccumulator acc({{0.0, 0.0}, {0.5, 0.0}}, 1.0, 0.05);
  (void)acc.finish();
  EXPECT_THROW((void)acc.finish(), std::logic_error);
  // The sink adapter, by contrast, must be idempotent (TraceSink contract).
  OnlineMetrics online({{0.0, 0.0}, {0.5, 0.0}}, 1.0, 0.05);
  online.finish();
  online.finish();
  EXPECT_EQ(online.report().activations, 0u);
}

}  // namespace
}  // namespace cohesion::trace
