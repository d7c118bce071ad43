// Certification of the generative schedulers against the trace validators:
// the schedulers must produce exactly the scheduling models they claim.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "algo/baselines.hpp"
#include "core/engine.hpp"
#include "core/validators.hpp"
#include "metrics/configurations.hpp"
#include "sched/asynchronous.hpp"
#include "sched/synchronous.hpp"

namespace cohesion::sched {
namespace {

using core::Engine;
using core::EngineConfig;
using core::Trace;

EngineConfig exact_config() {
  EngineConfig c;
  c.visibility.radius = 1.0;
  c.error.random_rotation = false;
  return c;
}

Trace run_with(core::Scheduler& sched, std::size_t n, std::size_t steps) {
  const algo::NullAlgorithm null;
  const auto initial = metrics::line_configuration(n, 0.5);
  Engine engine(initial, null, sched, exact_config());
  engine.run(steps);
  return engine.trace();
}

TEST(FSync, EveryRobotEveryRound) {
  FSyncScheduler sched(4);
  const Trace t = run_with(sched, 4, 40);
  for (core::RobotId r = 0; r < 4; ++r) EXPECT_EQ(t.activation_count(r), 10u);
  EXPECT_TRUE(core::is_ssync(t));
  EXPECT_TRUE(core::is_fair(t, 1.5));
}

TEST(FSync, RoundsAlign) {
  FSyncScheduler sched(3);
  const Trace t = run_with(sched, 3, 9);
  for (const auto& rec : t.records()) {
    EXPECT_DOUBLE_EQ(rec.start(), std::floor(rec.start()));
  }
}

TEST(SSync, IsSsyncShapedAndFair) {
  SSyncScheduler::Params p;
  p.activation_probability = 0.4;
  p.fairness_window = 5;
  SSyncScheduler sched(6, p);
  const Trace t = run_with(sched, 6, 300);
  EXPECT_TRUE(core::is_ssync(t));
  EXPECT_TRUE(core::is_fair(t, static_cast<double>(p.fairness_window) + 1.0));
  // Not FSync: some round should miss some robot.
  std::size_t total = 0;
  for (core::RobotId r = 0; r < 6; ++r) total += t.activation_count(r);
  EXPECT_EQ(total, 300u);
}

TEST(SSync, AllSubsetSchedulesAreAlsoOneAsync) {
  // SSync executions are a special case of every async model.
  SSyncScheduler sched(5);
  const Trace t = run_with(sched, 5, 200);
  EXPECT_TRUE(core::is_nested_activation(t));
}

class KAsyncValidation : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KAsyncValidation, TraceSatisfiesK) {
  const std::size_t k = GetParam();
  KAsyncScheduler::Params p;
  p.k = k;
  p.seed = 17 + k;
  KAsyncScheduler sched(6, p);
  const Trace t = run_with(sched, 6, 600);
  EXPECT_TRUE(core::is_k_async(t, k)) << "max nested = "
                                      << core::max_activations_within_interval(t);
  EXPECT_TRUE(core::is_fair(t, 20.0));
}

TEST_P(KAsyncValidation, ActuallyExercisesAsynchrony) {
  const std::size_t k = GetParam();
  KAsyncScheduler::Params p;
  p.k = k;
  p.min_duration = 1.0;
  p.max_duration = 4.0;
  p.seed = 23 + k;
  KAsyncScheduler sched(6, p);
  const Trace t = run_with(sched, 6, 600);
  // The schedule should not be degenerate-synchronous: overlapping intervals
  // must occur (k >= 1 of them).
  EXPECT_GE(core::max_activations_within_interval(t), 1u);
}

TEST_P(KAsyncValidation, HeapSelectionSatisfiesKAndFairness) {
  // Heap selection follows a different seeded stream (O(1) RNG draws per
  // proposal instead of n tie-jitters) but must generate equally valid
  // k-async schedules: the k-bound, fairness and genuine interval overlap
  // all certify against the same validators.
  const std::size_t k = GetParam();
  KAsyncScheduler::Params p;
  p.k = k;
  p.seed = 29 + k;
  p.heap_selection = true;
  KAsyncScheduler sched(6, p);
  const Trace t = run_with(sched, 6, 600);
  EXPECT_TRUE(core::is_k_async(t, k)) << "max nested = "
                                      << core::max_activations_within_interval(t);
  EXPECT_TRUE(core::is_fair(t, 20.0));
  EXPECT_GE(core::max_activations_within_interval(t), 1u);
}

TEST(KAsync, HeapSelectionIsDeterministicPerSeed) {
  KAsyncScheduler::Params p;
  p.k = 2;
  p.seed = 77;
  p.heap_selection = true;
  KAsyncScheduler a(5, p);
  KAsyncScheduler b(5, p);
  const Trace ta = run_with(a, 5, 200);
  const Trace tb = run_with(b, 5, 200);
  ASSERT_EQ(ta.records().size(), tb.records().size());
  for (std::size_t i = 0; i < ta.records().size(); ++i) {
    EXPECT_EQ(ta.records()[i].activation.robot, tb.records()[i].activation.robot);
    EXPECT_EQ(ta.records()[i].activation.t_look, tb.records()[i].activation.t_look);
    EXPECT_EQ(ta.records()[i].activation.t_move_end, tb.records()[i].activation.t_move_end);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, KAsyncValidation, ::testing::Values(1, 2, 3, 5, 8));

class KNestAValidation : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KNestAValidation, TraceIsNestedWithDepthK) {
  const std::size_t k = GetParam();
  KNestAScheduler::Params p;
  p.k = k;
  p.seed = 31 + k;
  KNestAScheduler sched(7, p);
  const Trace t = run_with(sched, 7, 700);
  EXPECT_TRUE(core::is_nested_activation(t));
  EXPECT_TRUE(core::is_k_nesta(t, k));
  // Depth actually reached (pairs exist in a 7-robot round).
  EXPECT_EQ(core::max_activations_within_interval(t), k);
  EXPECT_TRUE(core::is_fair(t, 3.0));
}

INSTANTIATE_TEST_SUITE_P(Sweep, KNestAValidation, ::testing::Values(1, 2, 3, 6));

TEST(SSync, FairnessWindowOneIsFullySynchronous) {
  // With a 1-round fairness window every robot is forced every round: the
  // schedule degenerates to FSync regardless of the activation probability.
  SSyncScheduler::Params p;
  p.activation_probability = 0.0;
  p.fairness_window = 1;
  SSyncScheduler sched(4, p);
  const Trace t = run_with(sched, 4, 40);
  for (core::RobotId r = 0; r < 4; ++r) EXPECT_EQ(t.activation_count(r), 10u);
}

TEST(KNestA, SingleRobotDegeneratesGracefully) {
  KNestAScheduler sched(1);
  const Trace t = run_with(sched, 1, 10);
  EXPECT_EQ(t.activation_count(0), 10u);
  EXPECT_TRUE(core::is_fair(t, 2.0));
}

TEST(Scripted, ReplaysAndEnds) {
  std::vector<core::Activation> script{
      {0, 0.0, 0.1, 0.5, 1.0},
      {1, 0.2, 0.3, 0.7, 1.0},
  };
  ScriptedScheduler sched(script);
  const Trace t = run_with(sched, 2, 100);
  EXPECT_EQ(t.records().size(), 2u);
}

TEST(Scripted, RejectsUnsortedScript) {
  std::vector<core::Activation> script{
      {0, 1.0, 1.1, 1.5, 1.0},
      {1, 0.0, 0.3, 0.7, 1.0},
  };
  EXPECT_THROW(ScriptedScheduler{script}, std::invalid_argument);
}

TEST(Schedulers, ZeroRobotsThrow) {
  EXPECT_THROW(KAsyncScheduler(0), std::invalid_argument);
  EXPECT_THROW(KNestAScheduler(0), std::invalid_argument);
}

TEST(Schedulers, KZeroThrows) {
  KAsyncScheduler::Params pa;
  pa.k = 0;
  EXPECT_THROW(KAsyncScheduler(3, pa), std::invalid_argument);
  KNestAScheduler::Params pn;
  pn.k = 0;
  EXPECT_THROW(KNestAScheduler(3, pn), std::invalid_argument);
}

TEST(KAsync, RejectsNonFiniteTimingNamingTheKey) {
  // Specs cannot spell inf or NaN (tests/run/registry_test.cpp holds the
  // range rows); the constructor still refuses them from C++.
  const double bad[] = {std::numeric_limits<double>::infinity(),
                        std::numeric_limits<double>::quiet_NaN()};
  for (const double v : bad) {
    for (double KAsyncScheduler::Params::*field :
         {&KAsyncScheduler::Params::min_duration, &KAsyncScheduler::Params::max_duration,
          &KAsyncScheduler::Params::min_gap, &KAsyncScheduler::Params::max_gap,
          &KAsyncScheduler::Params::xi}) {
      KAsyncScheduler::Params p;
      p.*field = v;
      EXPECT_THROW(KAsyncScheduler(3, p), std::invalid_argument) << v;
    }
  }
  KAsyncScheduler::Params p;
  p.max_gap = std::numeric_limits<double>::infinity();
  try {
    KAsyncScheduler sched(3, p);
    FAIL() << "infinite max_gap accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("\"max_gap\""), std::string::npos) << e.what();
  }
}

TEST(KAsync, UnboundedModeAllowsDeepNesting) {
  KAsyncScheduler::Params p;
  p.k = static_cast<std::size_t>(-1);  // Async
  p.min_duration = 0.2;  // short inner intervals can nest many times...
  p.max_duration = 12.0;  // ...inside long outer ones
  p.min_gap = 0.01;
  p.max_gap = 0.05;
  p.seed = 99;
  KAsyncScheduler sched(4, p);
  const Trace t = run_with(sched, 4, 800);
  // With long intervals and short gaps, nesting depth should exceed any
  // small k — demonstrating genuinely unbounded asynchrony.
  EXPECT_GT(core::max_activations_within_interval(t), 3u);
}

TEST(KAsync, XiRigidFractions) {
  KAsyncScheduler::Params p;
  p.xi = 0.5;
  p.seed = 7;
  KAsyncScheduler sched(3, p);
  const algo::NullAlgorithm null;
  Engine engine(metrics::line_configuration(3, 0.5), null, sched, exact_config());
  engine.run(100);
  for (const auto& rec : engine.trace().records()) {
    EXPECT_GE(rec.activation.realized_fraction, 0.5);
    EXPECT_LE(rec.activation.realized_fraction, 1.0);
  }
}

}  // namespace
}  // namespace cohesion::sched
