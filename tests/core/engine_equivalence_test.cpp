// The engine's incremental snapshot feed must be indistinguishable from the
// brute-force reference engine (tests/oracles/engine_oracle.hpp): same seeds
// -> same ActivationRecords, to the bit. This holds because both examine the
// same visible set through the same predicate and draw RNG in the same
// (ascending-id) order; these tests sweep schedulers, error models and
// visibility variants to pin that down.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <vector>

#include "algo/baselines.hpp"
#include "algo/kknps.hpp"
#include "core/engine.hpp"
#include "metrics/configurations.hpp"
#include "oracles/engine_oracle.hpp"
#include "sched/asynchronous.hpp"
#include "sched/synchronous.hpp"

namespace cohesion::core {
namespace {

using geom::Vec2;

using oracles::EngineOracle;

void expect_identical_traces(const Trace& got, const Trace& want, std::uint64_t seed) {
  ASSERT_EQ(got.records().size(), want.records().size()) << "seed " << seed;
  for (std::size_t i = 0; i < got.records().size(); ++i) {
    const ActivationRecord& g = got.records()[i];
    const ActivationRecord& b = want.records()[i];
    EXPECT_EQ(g.activation.robot, b.activation.robot) << "seed " << seed << " rec " << i;
    EXPECT_EQ(g.activation.t_look, b.activation.t_look) << "seed " << seed << " rec " << i;
    EXPECT_EQ(g.activation.t_move_start, b.activation.t_move_start)
        << "seed " << seed << " rec " << i;
    EXPECT_EQ(g.activation.t_move_end, b.activation.t_move_end)
        << "seed " << seed << " rec " << i;
    EXPECT_EQ(g.activation.realized_fraction, b.activation.realized_fraction)
        << "seed " << seed << " rec " << i;
    EXPECT_EQ(g.from, b.from) << "seed " << seed << " rec " << i;
    EXPECT_EQ(g.planned, b.planned) << "seed " << seed << " rec " << i;
    EXPECT_EQ(g.realized, b.realized) << "seed " << seed << " rec " << i;
    EXPECT_EQ(g.seen, b.seen) << "seed " << seed << " rec " << i;
  }
}

std::unique_ptr<Scheduler> make_scheduler(std::uint64_t seed, std::size_t n) {
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

std::vector<Vec2> make_initial(std::uint64_t seed, std::size_t n, double v) {
  switch (seed % 3) {
    case 0:
      return metrics::random_connected_configuration(n, 0.4 * std::sqrt(double(n)), v, seed + 1);
    case 1:
      // Spacing exactly v: every chain edge sits on the closed-ball boundary.
      return metrics::line_configuration(n, v);
    default:
      return metrics::grid_configuration(n, 0.8 * v);
  }
}

EngineConfig make_config(std::uint64_t seed, std::size_t n) {
  EngineConfig cfg;
  cfg.seed = seed * 7919 + 13;
  cfg.visibility.radius = 1.0;
  cfg.visibility.open_ball = (seed / 2) % 2 == 1;
  cfg.visibility.multiplicity_detection = (seed / 4) % 2 == 1;
  if (seed % 5 == 4) {
    // Heterogeneous sensing (§6.2): per-robot radii around the common V.
    std::mt19937_64 radii_rng(seed);
    std::uniform_real_distribution<double> u(0.6, 1.7);
    for (std::size_t r = 0; r < n; ++r) cfg.visibility.per_robot_radii.push_back(u(radii_rng));
  }
  switch (seed % 6) {
    case 0:
      cfg.error.random_rotation = false;  // exact perception, identity frames
      break;
    case 1:
      break;  // random rotation only
    case 2:
      cfg.error.distance_delta = 0.05;  // per-neighbour RNG draws in the Look
      break;
    case 3:
      cfg.error.skew_lambda = 0.3;
      break;
    case 4:
      cfg.error.motion_quad_coeff = 0.1;
      break;
    default:
      cfg.error.allow_reflection = true;
      cfg.error.distance_delta = 0.02;
      break;
  }
  return cfg;
}

TEST(EngineEquivalence, AllIndexModesProduceIdenticalTraces) {
  // The engine against the reference engine over randomized schedulers
  // (FSync / SSync / k-Async / k-NestA), error models, visibility variants
  // and initial configurations. Both must commit bit-identical traces.
  const algo::KknpsAlgorithm kknps({.k = 1});
  const algo::AndoAlgorithm ando(1.0);
  for (std::uint64_t seed = 0; seed < 160; ++seed) {
    const std::size_t n = 2 + seed % 31;
    const auto initial = make_initial(seed, n, 1.0);
    const Algorithm& algorithm = seed % 2 == 0 ? static_cast<const Algorithm&>(kknps)
                                               : static_cast<const Algorithm&>(ando);

    const auto sched_engine = make_scheduler(seed, n);
    Engine engine(initial, algorithm, *sched_engine, make_config(seed, n));
    const auto sched_oracle = make_scheduler(seed, n);
    EngineOracle oracle(initial, algorithm, *sched_oracle, make_config(seed, n));

    if (seed % 7 == 3) {  // fail-stop robots ride along unchanged
      engine.crash(n / 2);
      oracle.crash(n / 2);
    }

    const std::size_t steps = 150;
    ASSERT_EQ(engine.run(steps), oracle.run(steps)) << "seed " << seed;
    expect_identical_traces(engine.trace(), oracle.trace(), seed);
    EXPECT_EQ(engine.current_diameter(), oracle.current_diameter()) << "seed " << seed;
    const auto cfg_engine = engine.current_configuration();
    const auto cfg_oracle = oracle.current_configuration();
    ASSERT_EQ(cfg_engine.size(), cfg_oracle.size());
    for (std::size_t r = 0; r < cfg_engine.size(); ++r) {
      EXPECT_EQ(cfg_engine[r], cfg_oracle[r]) << "seed " << seed << " robot " << r;
    }
  }
}

TEST(EngineEquivalence, LargeSwarmSpotCheck) {
  // One production-sized configuration: the index crosses many cells and
  // re-buckets one robot per commit across whole synchronous rounds.
  const algo::KknpsAlgorithm kknps({.k = 1});
  const std::size_t n = 512;
  const auto initial =
      metrics::random_connected_configuration(n, 0.4 * std::sqrt(double(n)), 1.0, 42);
  EngineConfig cfg;
  cfg.visibility.radius = 1.0;

  sched::FSyncScheduler sched_engine(n);
  Engine engine(initial, kknps, sched_engine, cfg);
  sched::FSyncScheduler sched_oracle(n);
  EngineOracle oracle(initial, kknps, sched_oracle, cfg);

  const std::size_t steps = n * 4;
  ASSERT_EQ(engine.run(steps), oracle.run(steps));
  expect_identical_traces(engine.trace(), oracle.trace(), 42);
  EXPECT_EQ(engine.current_diameter(), oracle.current_diameter());
}

TEST(EngineEquivalence, UnrestrictedAsyncLongRunIncrementalVsOracle) {
  // The regime the incremental index exists for: unrestricted Async
  // (k-Async with the bound removed) gives every Look a distinct time, and
  // the index re-buckets only the just-moved robot. A longer run than the
  // fuzz harness's, across several seeds and swarm sizes.
  const algo::KknpsAlgorithm kknps({.k = 2});
  for (const std::uint64_t seed : {3u, 17u, 90u}) {
    const std::size_t n = 32 + (seed % 3) * 48;
    const auto initial =
        metrics::random_connected_configuration(n, 0.4 * std::sqrt(double(n)), 1.0, seed);
    sched::KAsyncScheduler::Params p;
    p.k = std::numeric_limits<std::size_t>::max();  // Async: no asynchrony bound
    p.seed = seed * 31 + 1;
    EngineConfig cfg;
    cfg.visibility.radius = 1.0;
    cfg.error.distance_delta = 0.03;  // per-neighbour RNG draws pin the Look order

    sched::KAsyncScheduler sched_engine(n, p);
    Engine engine(initial, kknps, sched_engine, cfg);
    sched::KAsyncScheduler sched_oracle(n, p);
    EngineOracle oracle(initial, kknps, sched_oracle, cfg);

    const std::size_t steps = 2500;
    ASSERT_EQ(engine.run(steps), oracle.run(steps)) << "seed " << seed;
    expect_identical_traces(engine.trace(), oracle.trace(), seed);
    EXPECT_EQ(engine.current_diameter(), oracle.current_diameter()) << "seed " << seed;
  }
}

TEST(EngineEquivalence, ZeroDurationMovesAreSeenAtTheirLookTime) {
  // A zero-duration move (t_move_end == t_look) relocates the robot *at*
  // its Look time, so later same-time Looks must see it at its new
  // position. Several robots commit instantaneous moves at t = 1 and
  // observe each other at t = 1; engine and oracle traces must agree.
  const algo::CogAlgorithm cog;
  const std::vector<Vec2> initial{{0.0, 0.0}, {0.5, 0.0}, {0.9, 0.3}, {0.2, 0.6}};
  const std::vector<Activation> script{
      {0, 1.0, 1.0, 1.0, 1.0},  // instantaneous
      {1, 1.0, 1.0, 1.0, 0.5},  // instantaneous, xi-truncated
      {2, 1.0, 1.1, 1.4, 1.0},  // ordinary move proposed at the same Look time
      {3, 1.0, 1.0, 1.0, 1.0},  // instantaneous, after the ordinary one
      {0, 2.0, 2.0, 2.0, 1.0},
      {1, 2.0, 2.3, 2.5, 1.0},
  };
  EngineConfig cfg;
  cfg.visibility.radius = 1.0;
  cfg.error.random_rotation = false;

  sched::ScriptedScheduler sched_engine(script);
  Engine engine(initial, cog, sched_engine, cfg);
  sched::ScriptedScheduler sched_oracle(script);
  EngineOracle oracle(initial, cog, sched_oracle, cfg);

  ASSERT_EQ(oracle.run(script.size()), script.size());
  ASSERT_EQ(engine.run(script.size()), script.size());
  expect_identical_traces(engine.trace(), oracle.trace(), 0);
  // Robot 1 at t=1 must have seen robot 0 at its *post-teleport* position.
  EXPECT_EQ(engine.trace().records()[1].from, oracle.trace().records()[1].from);
}

TEST(EngineEquivalence, BackwardLookWithinSchedulerSlackStaysExact) {
  // The Scheduler contract allows a Look up to 1e-12 *before* the current
  // frontier. The incremental index cannot serve such a query from its
  // forward-maintained buckets (positions then live on already-replaced
  // segments), so the engine must fall back to a scan for that Look — and
  // resume incremental service afterwards. Engine and oracle must agree.
  const algo::CogAlgorithm cog;
  const std::vector<Vec2> initial{{0.0, 0.0}, {0.6, 0.0}, {0.3, 0.5}, {-0.4, 0.2}};
  const double eps = 5e-13;  // within the 1e-12 ordering slack
  const std::vector<Activation> script{
      {0, 1.0, 1.1, 1.6, 1.0},
      {1, 1.0 - eps, 1.0, 1.4, 1.0},        // backward Look: robot 0 not yet moved
      {2, 1.0 - eps / 2, 1.2, 1.5, 0.7},    // forward again, still before t = 1
      {3, 2.0, 2.1, 2.4, 1.0},              // normal forward service resumes
      {0, 3.0, 3.0, 3.3, 1.0},
      {1, 3.0 - eps, 3.1, 3.2, 1.0},        // backward again after real motion
      {2, 4.0, 4.0, 4.0, 1.0},              // zero-duration move after a fallback
      {3, 4.0, 4.2, 4.6, 1.0},
      // Chained sub-slack regression: each Look within 1e-12 of the
      // *previous* one (the engine's frontier), though the last is more
      // than 1e-12 below the first — legal per the engine contract.
      {0, 5.0, 5.1, 5.2, 1.0},
      {1, 5.0 - 9e-13, 5.0, 5.1, 1.0},
      {2, 5.0 - 1.8e-12, 5.3, 5.4, 1.0},
      // A backward Look that catches a robot mid-move: robot 0's move ends
      // at t = 7, where its next Look replaces the segment, and robot 1
      // looks just before, while robot 0 is still short of its end point.
      {0, 6.0, 6.0, 7.0, 1.0},
      {0, 7.0, 7.5, 8.0, 1.0},
      {1, 7.0 - eps, 7.2, 7.4, 1.0},
  };
  EngineConfig cfg;
  cfg.visibility.radius = 1.0;
  cfg.error.random_rotation = false;

  sched::ScriptedScheduler sched_engine(script);
  Engine engine(initial, cog, sched_engine, cfg);
  sched::ScriptedScheduler sched_oracle(script);
  EngineOracle oracle(initial, cog, sched_oracle, cfg);

  ASSERT_EQ(oracle.run(script.size()), script.size());
  ASSERT_EQ(engine.run(script.size()), script.size());
  expect_identical_traces(engine.trace(), oracle.trace(), 0);
}

TEST(EngineEquivalence, ViewPositionsAgreeMidRun) {
  // SimulationView::position (consumed by omniscient schedulers) must agree
  // between the cache tier and the trace tier at past and future times.
  const algo::KknpsAlgorithm kknps({.k = 1});
  const std::size_t n = 24;
  const auto initial =
      metrics::random_connected_configuration(n, 0.4 * std::sqrt(double(n)), 1.0, 5);
  sched::KAsyncScheduler sched(n, {.seed = 5});
  EngineConfig cfg;
  cfg.visibility.radius = 1.0;
  Engine engine(initial, kknps, sched, cfg);
  for (int chunk = 0; chunk < 20; ++chunk) {
    engine.run(10);
    for (RobotId r = 0; r < n; ++r) {
      for (double dt : {-2.0, -0.5, 0.0, 0.7, 5.0}) {
        const Time t = engine.frontier() + dt;
        if (t < 0.0) continue;
        const Vec2 via_view = engine.position(r, t);
        const Vec2 via_trace = engine.trace().position(r, t);
        EXPECT_EQ(via_view.x, via_trace.x) << "robot " << r << " t " << t;
        EXPECT_EQ(via_view.y, via_trace.y) << "robot " << r << " t " << t;
      }
    }
  }
}

}  // namespace
}  // namespace cohesion::core
