#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "algo/baselines.hpp"
#include "algo/kknps.hpp"
#include "metrics/configurations.hpp"
#include "sched/asynchronous.hpp"
#include "sched/synchronous.hpp"

namespace cohesion::core {
namespace {

using geom::Vec2;

/// Algorithm that always moves one unit toward the first perceived robot
/// (or stays if none) — handy for exercising engine mechanics.
class ChaseFirst final : public Algorithm {
 public:
  [[nodiscard]] Vec2 compute(const Snapshot& s) const override {
    if (s.empty()) return {0.0, 0.0};
    return s.neighbours()[0].position * 0.5;
  }
  [[nodiscard]] std::string_view name() const override { return "ChaseFirst"; }
};

Activation act(RobotId r, Time look, Time ms, Time me, double frac = 1.0) {
  return Activation{r, look, ms, me, frac};
}

EngineConfig exact_config(double v = 1.0) {
  EngineConfig c;
  c.visibility.radius = v;
  c.error.random_rotation = false;
  return c;
}

TEST(Engine, EmptyConfigurationThrows) {
  const algo::NullAlgorithm null;
  sched::ScriptedScheduler s({});
  EXPECT_THROW(Engine({}, null, s, {}), std::invalid_argument);
}

TEST(Engine, RejectsOutOfRangeErrorModels) {
  const algo::NullAlgorithm null;
  sched::FSyncScheduler sched(2);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {-0.1, 1.0, 2.0, nan, inf}) {
    EngineConfig c;
    c.error.distance_delta = bad;
    EXPECT_THROW(Engine({{0.0, 0.0}, {0.5, 0.0}}, null, sched, c), std::invalid_argument) << bad;
    c = {};
    c.error.skew_lambda = bad;
    EXPECT_THROW(Engine({{0.0, 0.0}, {0.5, 0.0}}, null, sched, c), std::invalid_argument) << bad;
  }
  for (const double bad : {-1e-9, nan, inf}) {
    EngineConfig c;
    c.error.motion_quad_coeff = bad;
    EXPECT_THROW(Engine({{0.0, 0.0}, {0.5, 0.0}}, null, sched, c), std::invalid_argument) << bad;
  }
  EngineConfig ok;
  ok.error.distance_delta = 0.5;
  ok.error.skew_lambda = 0.5;
  ok.error.motion_quad_coeff = 3.0;
  EXPECT_NO_THROW(Engine({{0.0, 0.0}, {0.5, 0.0}}, null, sched, ok));
}

TEST(Engine, NilAlgorithmNeverMoves) {
  const algo::NullAlgorithm null;
  sched::FSyncScheduler sched(3);
  Engine engine({{0.0, 0.0}, {0.5, 0.0}, {1.0, 0.0}}, null, sched, exact_config());
  engine.run(30);
  const auto cfg = engine.current_configuration();
  EXPECT_TRUE(geom::almost_equal(cfg[0], {0.0, 0.0}));
  EXPECT_TRUE(geom::almost_equal(cfg[2], {1.0, 0.0}));
}

TEST(Engine, ScriptedMoveExecutes) {
  const ChaseFirst chase;
  sched::ScriptedScheduler sched({act(0, 0.0, 0.1, 1.0)});
  Engine engine({{0.0, 0.0}, {1.0, 0.0}}, chase, sched, exact_config(2.0));
  EXPECT_TRUE(engine.step());
  EXPECT_FALSE(engine.step());
  // Robot 0 moved halfway to robot 1.
  EXPECT_TRUE(geom::almost_equal(engine.current_configuration()[0], {0.5, 0.0}, 1e-9));
}

TEST(Engine, XiRigidTruncation) {
  const ChaseFirst chase;
  sched::ScriptedScheduler sched({act(0, 0.0, 0.1, 1.0, /*frac=*/0.5)});
  Engine engine({{0.0, 0.0}, {1.0, 0.0}}, chase, sched, exact_config(2.0));
  engine.run(10);
  // Planned 0.5 toward neighbour, realized half of it.
  EXPECT_TRUE(geom::almost_equal(engine.current_configuration()[0], {0.25, 0.0}, 1e-9));
}

TEST(Engine, VisibilityLimitsSnapshot) {
  const ChaseFirst chase;
  // Robot 1 is out of range of robot 0 (V = 1, distance 5): no move.
  sched::ScriptedScheduler sched({act(0, 0.0, 0.1, 1.0)});
  Engine engine({{0.0, 0.0}, {5.0, 0.0}}, chase, sched, exact_config(1.0));
  engine.run(10);
  EXPECT_TRUE(geom::almost_equal(engine.current_configuration()[0], {0.0, 0.0}));
}

TEST(Engine, OpenBallExcludesThreshold) {
  const ChaseFirst chase;
  EngineConfig cfg = exact_config(1.0);
  cfg.visibility.open_ball = true;
  sched::ScriptedScheduler sched({act(0, 0.0, 0.1, 1.0)});
  Engine engine({{0.0, 0.0}, {1.0, 0.0}}, chase, sched, cfg);
  engine.run(10);
  EXPECT_TRUE(geom::almost_equal(engine.current_configuration()[0], {0.0, 0.0}));
}

TEST(Engine, PerRobotRadii) {
  const ChaseFirst chase;
  EngineConfig cfg = exact_config(1.0);
  cfg.visibility.per_robot_radii = {3.0, 1.0};
  // Robot 0 sees robot 1 (radius 3) and moves; robot 1 would not see 0.
  sched::ScriptedScheduler sched({act(0, 0.0, 0.1, 1.0)});
  Engine engine({{0.0, 0.0}, {2.0, 0.0}}, chase, sched, cfg);
  engine.run(10);
  EXPECT_TRUE(geom::almost_equal(engine.current_configuration()[0], {1.0, 0.0}, 1e-9));
}

TEST(Engine, MidMoveObservation) {
  // Robot 1 looks while robot 0 is mid-move and sees the interpolated
  // position — the crux of Async semantics.
  const ChaseFirst chase;
  sched::ScriptedScheduler sched({
      act(0, 0.0, 0.0, 2.0),  // robot 0 moves from (0,0) to (0.5, 0) over [0,2]
      act(1, 1.0, 1.1, 1.2),  // robot 1 looks at t=1: robot 0 is at (0.25, 0)
  });
  Engine engine({{0.0, 0.0}, {1.0, 0.0}}, chase, sched, exact_config(2.0));
  engine.run(10);
  const auto& recs = engine.trace().records();
  ASSERT_EQ(recs.size(), 2u);
  // Robot 1 planned to move halfway toward (0.25, 0) from (1, 0).
  EXPECT_TRUE(geom::almost_equal(recs[1].planned, {0.625, 0.0}, 1e-9));
}

TEST(Engine, CrashedRobotStaysPut) {
  const ChaseFirst chase;
  sched::ScriptedScheduler sched({act(0, 0.0, 0.1, 1.0)});
  Engine engine({{0.0, 0.0}, {1.0, 0.0}}, chase, sched, exact_config(2.0));
  engine.crash(0);
  engine.run(10);
  EXPECT_TRUE(geom::almost_equal(engine.current_configuration()[0], {0.0, 0.0}));
}

TEST(Engine, RejectsOutOfOrderLooks) {
  const algo::NullAlgorithm null;
  sched::ScriptedScheduler sched({act(0, 5.0, 5.1, 6.0)});
  Engine engine({{0.0, 0.0}}, null, sched, exact_config());
  engine.run(1);
  // Next proposal would violate the frontier: simulate via a fresh scripted
  // scheduler pushed through the same engine is not possible, so check the
  // overlapping-activation contract instead.
  sched::ScriptedScheduler bad({act(0, 0.0, 0.1, 2.0), act(0, 1.0, 1.1, 3.0)});
  Engine engine2({{0.0, 0.0}}, null, bad, exact_config());
  EXPECT_TRUE(engine2.step());
  EXPECT_THROW(engine2.step(), std::logic_error);
}

TEST(Engine, RejectsBadPhaseOrder) {
  const algo::NullAlgorithm null;
  sched::ScriptedScheduler bad({act(0, 1.0, 0.5, 2.0)});
  Engine engine({{0.0, 0.0}}, null, bad, exact_config());
  EXPECT_THROW(engine.step(), std::logic_error);
}

TEST(Engine, RejectsBadRealizedFraction) {
  const algo::NullAlgorithm null;
  sched::ScriptedScheduler bad({act(0, 0.0, 0.1, 1.0, 0.0)});
  Engine engine({{0.0, 0.0}}, null, bad, exact_config());
  EXPECT_THROW(engine.step(), std::logic_error);
}

TEST(Engine, PerceptionHookOverridesSnapshot) {
  const ChaseFirst chase;
  sched::ScriptedScheduler sched({act(0, 0.0, 0.1, 1.0)});
  Engine engine({{0.0, 0.0}, {1.0, 0.0}}, chase, sched, exact_config(2.0));
  engine.set_perception_hook([](RobotId, Time, const Snapshot&) {
    Snapshot fake;
    fake.neighbours().push_back({{0.0, 1.0}, false});
    return fake;
  });
  engine.run(10);
  EXPECT_TRUE(geom::almost_equal(engine.current_configuration()[0], {0.0, 0.5}, 1e-9));
}

TEST(Engine, RunUntilConvergedStopsEarly) {
  const algo::KknpsAlgorithm kknps;
  sched::FSyncScheduler sched(3);
  Engine engine({{0.0, 0.0}, {0.4, 0.0}, {0.8, 0.0}}, kknps, sched, exact_config(1.0));
  EXPECT_TRUE(engine.run_until_converged(1e-3, 200000, 16));
  EXPECT_LE(engine.current_diameter(), 1e-3);
}

TEST(Engine, RunUntilHonorsSimulatedTimeBudget) {
  // FSync commits one round per unit time: Looks at t = 0..5 are under a
  // 5.5 budget; the first Look of round t = 6 crosses it and — per the
  // documented post-commit check — is itself still committed. The budget
  // is simulation time, deterministic, unlike a wall-clock limit.
  const algo::NullAlgorithm null;
  sched::FSyncScheduler sched(3);
  Engine engine({{0.0, 0.0}, {0.5, 0.0}, {1.0, 0.0}}, null, sched, exact_config());
  StopCondition stop;
  stop.epsilon = -1.0;  // never converges; only the time budget can stop it
  stop.max_activations = 200000;
  stop.max_time = 5.5;
  EXPECT_FALSE(engine.run_until(stop));
  EXPECT_EQ(engine.trace().records().size(), 6u * 3u + 1u);

  // max_time = 0 disables the budget: the activation budget rules.
  sched::FSyncScheduler sched2(3);
  Engine engine2({{0.0, 0.0}, {0.5, 0.0}, {1.0, 0.0}}, null, sched2, exact_config());
  StopCondition unlimited;
  unlimited.epsilon = -1.0;
  unlimited.max_activations = 30;
  EXPECT_FALSE(engine2.run_until(unlimited));
  EXPECT_EQ(engine2.trace().records().size(), 30u);
}

TEST(Engine, StopCheckSortsOnlyTheRobotsThatMoved) {
  // async_stream's run (perfbench/specs/async_stream.json: n = 2048 on a
  // 0.8 grid, KKNPS k = 2, KAsync k = 2, xi = 0.5, 20,000 activations).
  // The first check sorts the whole swarm; each later one re-sorts only
  // the robots whose position changed since the previous check, at most
  // check_every of them. On the grid most Looks are symmetric and move
  // nobody, so the 312 later checks sort 442 points in all where a full
  // sort per check would sort 312 x 2048. The total is a pinned work count.
  const std::size_t n = 2048;
  const algo::KknpsAlgorithm kknps({.k = 2});
  sched::KAsyncScheduler sched(n, {.k = 2, .xi = 0.5, .seed = 1});
  Engine engine(metrics::grid_configuration(n, 0.8), kknps, sched);
  std::vector<std::size_t> sorted;
  StopCondition stop;
  stop.max_activations = 20000;  // 313 checks, the last after 32
  stop.predicate = [&](const Engine& e) {
    sorted.push_back(e.diameter_points_sorted());
    return false;
  };
  EXPECT_FALSE(engine.run_until(stop));
  ASSERT_EQ(sorted.size(), 313u);
  EXPECT_EQ(sorted.front(), n);
  std::size_t total = 0;
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_LE(sorted[i], stop.check_every) << "check " << i;
    total += sorted[i];
  }
  EXPECT_EQ(total, 442u);
}

TEST(Engine, KAsyncSelectionTempersOnlyTheRobotsThatCanWin) {
  // Every proposal advances KAsync's stream by one word per robot, but
  // tempers and compares only the candidates: robots whose ready time is
  // within the jitter width of max(earliest ready, frontier). The totals
  // are pinned work counts (n per proposal without the candidate set).
  {
    // async_stream's run (perfbench/specs/async_stream.json: n = 2048 on a
    // 0.8 grid, KKNPS k = 2, KAsync k = 2, xi = 0.5, 20,000 activations).
    // The k-bound's postponements leave ~500 robots waiting at the
    // frontier, a quarter of the swarm.
    const std::size_t n = 2048;
    const algo::KknpsAlgorithm kknps({.k = 2});
    sched::KAsyncScheduler sched(n, {.k = 2, .xi = 0.5, .seed = 1});
    Engine engine(metrics::grid_configuration(n, 0.8), kknps, sched);
    StopCondition stop;
    stop.max_activations = 20000;
    EXPECT_FALSE(engine.run_until(stop));
    EXPECT_EQ(sched.words_tempered(), 10'287'175u);  // 514.4 per proposal
  }
  {
    // converge_sweep's largest cell (perfbench/specs/converge_sweep.json:
    // n = 64, KKNPS k = 2, KAsync k = 2, a random start of radius
    // 0.4 sqrt(n)), run to eps = 0.05.
    const std::size_t n = 64;
    const algo::KknpsAlgorithm kknps({.k = 2});
    sched::KAsyncScheduler sched(n, {.k = 2, .seed = 1});
    Engine engine(metrics::random_connected_configuration(n, 3.2, 1.0, 1), kknps, sched);
    StopCondition stop;
    stop.epsilon = 0.05;
    stop.max_activations = 200000;
    EXPECT_TRUE(engine.run_until(stop));
    EXPECT_EQ(engine.trace().records().size(), 10'496u);
    EXPECT_EQ(sched.words_tempered(), 64'686u);  // 6.2 per proposal
  }
  // heap_selection draws no jitter.
  sched::KAsyncScheduler heap(16, {.heap_selection = true});
  const std::vector<geom::Vec2> line = metrics::line_configuration(16, 0.5);
  const algo::KknpsAlgorithm kknps;
  Engine engine(line, kknps, heap);
  engine.run(100);
  EXPECT_EQ(heap.words_tempered(), 0u);
}

TEST(Engine, MultiplicityCollapsedWithoutDetection) {
  // Two robots co-located: observer perceives a single robot.
  const ChaseFirst chase;
  sched::ScriptedScheduler sched({act(0, 0.0, 0.1, 1.0)});
  Engine engine({{0.0, 0.0}, {1.0, 0.0}, {1.0, 0.0}}, chase, sched, exact_config(2.0));
  engine.run(10);
  EXPECT_EQ(engine.trace().records()[0].seen, 1u);
}

TEST(Engine, MultiplicityReportedWithDetection) {
  const ChaseFirst chase;
  EngineConfig cfg = exact_config(2.0);
  cfg.visibility.multiplicity_detection = true;
  sched::ScriptedScheduler sched({act(0, 0.0, 0.1, 1.0)});
  Engine engine({{0.0, 0.0}, {1.0, 0.0}, {1.0, 0.0}}, chase, sched, cfg);
  engine.run(10);
  EXPECT_EQ(engine.trace().records()[0].seen, 2u);
}

}  // namespace
}  // namespace cohesion::core
