#include "core/validators.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <random>
#include <vector>

#include "oracles/validators_oracle.hpp"

namespace cohesion::core {
namespace {

ActivationRecord rec(RobotId r, Time look, Time end) {
  ActivationRecord out;
  out.activation = {r, look, look, end, 1.0};
  return out;
}

Trace two_robot_trace(std::initializer_list<ActivationRecord> recs) {
  Trace t({{0.0, 0.0}, {1.0, 0.0}});
  for (const auto& r : recs) t.record(r);
  return t;
}

TEST(Validators, DisjointIntervalsAreOneAsyncAndNested) {
  const Trace t = two_robot_trace({rec(0, 0.0, 1.0), rec(1, 2.0, 3.0), rec(0, 4.0, 5.0)});
  EXPECT_EQ(max_activations_within_interval(t), 0u);
  EXPECT_TRUE(is_nested_activation(t));
  EXPECT_TRUE(is_k_async(t, 1));
  EXPECT_TRUE(is_k_nesta(t, 1));
}

TEST(Validators, SingleNestedActivation) {
  const Trace t = two_robot_trace({rec(0, 0.0, 10.0), rec(1, 2.0, 3.0)});
  EXPECT_EQ(max_activations_within_interval(t), 1u);
  EXPECT_TRUE(is_nested_activation(t));
  EXPECT_TRUE(is_k_nesta(t, 1));
  EXPECT_FALSE(is_k_nesta(t, 0));
}

TEST(Validators, CrossingIntervalsNotNested) {
  const Trace t = two_robot_trace({rec(0, 0.0, 5.0), rec(1, 3.0, 8.0)});
  EXPECT_FALSE(is_nested_activation(t));
  EXPECT_EQ(max_activations_within_interval(t), 1u);
  EXPECT_TRUE(is_k_async(t, 1));
}

TEST(Validators, KCounting) {
  const Trace t = two_robot_trace(
      {rec(0, 0.0, 10.0), rec(1, 1.0, 2.0), rec(1, 3.0, 4.0), rec(1, 5.0, 6.0)});
  EXPECT_EQ(max_activations_within_interval(t), 3u);
  EXPECT_FALSE(is_k_async(t, 2));
  EXPECT_TRUE(is_k_async(t, 3));
  EXPECT_TRUE(is_k_nesta(t, 3));
}

TEST(Validators, TouchingEndpointsAreDisjoint) {
  const Trace t = two_robot_trace({rec(0, 0.0, 2.0), rec(1, 2.0, 4.0)});
  EXPECT_TRUE(is_nested_activation(t));
  EXPECT_EQ(max_activations_within_interval(t), 0u);
}

TEST(Validators, EqualIntervalsAreNested) {
  const Trace t = two_robot_trace({rec(0, 0.0, 1.0), rec(1, 0.0, 1.0)});
  EXPECT_TRUE(is_nested_activation(t));
}

TEST(Validators, SameRobotIntervalsIgnored) {
  // A robot's own successive intervals never count toward k.
  const Trace t = two_robot_trace({rec(0, 0.0, 1.0), rec(0, 2.0, 3.0), rec(0, 4.0, 5.0)});
  EXPECT_EQ(max_activations_within_interval(t), 0u);
}

TEST(Validators, SsyncShape) {
  Trace t({{0.0, 0.0}, {1.0, 0.0}});
  t.record(rec(0, 0.0, 0.75));
  t.record(rec(1, 0.0, 0.75));
  t.record(rec(0, 1.0, 1.75));
  EXPECT_TRUE(is_ssync(t, 1.0));
  t.record(rec(1, 2.5, 3.5));  // spans rounds 2 and 3
  EXPECT_FALSE(is_ssync(t, 1.0));
}

TEST(Validators, Fairness) {
  Trace t({{0.0, 0.0}, {1.0, 0.0}});
  t.record(rec(0, 0.0, 1.0));
  t.record(rec(1, 0.5, 1.5));
  t.record(rec(0, 3.0, 4.0));
  t.record(rec(1, 3.5, 4.5));
  EXPECT_TRUE(is_fair(t, 3.0));
  EXPECT_FALSE(is_fair(t, 2.0));
}

TEST(Validators, ThreeRobotChainedOverlaps) {
  // 0 and 1 cross, 1 and 2 cross: Async but not NestA; each contains one
  // look of the other => 1-Async.
  Trace t({{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}});
  t.record(rec(0, 0.0, 2.0));
  t.record(rec(1, 1.0, 3.0));
  t.record(rec(2, 2.5, 4.5));
  EXPECT_FALSE(is_nested_activation(t));
  EXPECT_TRUE(is_k_async(t, 1));
}

TEST(Validators, MatchTheAllPairsOracleOnRandomTraces) {
  // Times on a 0.25 grid nudged by multiples of kEps = 1e-9, so starts and
  // ends fall on, just inside and just outside every kEps boundary; grid
  // points repeat, so intervals share endpoints, and zero or negative
  // lengths occur. Short traces are often nested, long ones rarely.
  constexpr double kEps = 1e-9;
  const double nudges[] = {0.0,        0.0,         0.0,      kEps,      -kEps,
                           0.5 * kEps, -0.5 * kEps, 2 * kEps, -2 * kEps, 1.5 * kEps};
  std::size_t nested = 0;
  std::size_t counted = 0;
  for (std::uint64_t seed = 0; seed < 2000; ++seed) {
    std::mt19937_64 rng(seed);
    const auto nudge = [&] { return nudges[rng() % std::size(nudges)]; };
    const std::size_t robots = 2 + rng() % 4;
    Trace t{std::vector<geom::Vec2>(robots)};
    const std::size_t records = rng() % (seed % 2 == 0 ? 8 : 48);
    for (std::size_t i = 0; i < records; ++i) {
      const double look = 0.25 * static_cast<double>(rng() % 16) + nudge();
      const double end = look + 0.25 * static_cast<double>(rng() % 6) + nudge();
      t.record(rec(static_cast<RobotId>(rng() % robots), look, end));
    }
    const std::size_t within = max_activations_within_interval(t);
    ASSERT_EQ(within, oracles::max_activations_within_interval(t)) << "seed " << seed;
    ASSERT_EQ(is_nested_activation(t), oracles::is_nested_activation(t)) << "seed " << seed;
    nested += is_nested_activation(t) ? 1 : 0;
    counted += within > 1 ? 1 : 0;
  }
  // Both verdicts, and counts above one, occur often enough to matter.
  EXPECT_GT(nested, 200u);
  EXPECT_LT(nested, 1800u);
  EXPECT_GT(counted, 200u);
}

}  // namespace
}  // namespace cohesion::core
