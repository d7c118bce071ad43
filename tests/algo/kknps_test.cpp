// Unit and property tests of the KKNPS destination rule (paper §3.2, §5).
#include "algo/kknps.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "geometry/angles.hpp"
#include "geometry/safe_region.hpp"
#include "oracles/angular_gap_oracle.hpp"

namespace cohesion::algo {
namespace {

using core::Snapshot;
using geom::kPi;
using geom::unit;
using geom::Vec2;

Snapshot snap(std::initializer_list<Vec2> neighbours) {
  Snapshot s;
  for (const Vec2 p : neighbours) s.neighbours().push_back({p, false});
  return s;
}

TEST(Kknps, EmptySnapshotStaysPut) {
  const KknpsAlgorithm algo;
  EXPECT_EQ(algo.compute({}), (Vec2{0.0, 0.0}));
}

TEST(Kknps, InvalidParamsThrow) {
  EXPECT_THROW(KknpsAlgorithm({.k = 0}), std::invalid_argument);
  EXPECT_THROW(KknpsAlgorithm({.k = 1, .distance_delta = -0.1}), std::invalid_argument);
  EXPECT_THROW(KknpsAlgorithm({.k = 1, .radius_divisor = 2.0}), std::invalid_argument);
}

TEST(Kknps, NonFiniteOrNegativeParamsThrow) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    EXPECT_THROW(KknpsAlgorithm({.k = 1, .distance_delta = bad}), std::invalid_argument) << bad;
    EXPECT_THROW(KknpsAlgorithm({.k = 1, .halfplane_tolerance = bad}), std::invalid_argument)
        << bad;
    EXPECT_THROW(KknpsAlgorithm({.k = 1, .radius_divisor = bad}), std::invalid_argument) << bad;
  }
  // half_plane_gap decides exactly only for thresholds pi + tol >= pi.
  EXPECT_THROW(KknpsAlgorithm({.k = 1, .halfplane_tolerance = -1e-12}), std::invalid_argument);
  EXPECT_NO_THROW(KknpsAlgorithm({.k = 1, .halfplane_tolerance = 0.0}));
  EXPECT_NO_THROW(KknpsAlgorithm({.k = 1, .distance_delta = 0.0, .radius_divisor = 2.5}));
}

/// The destination rule as it read before half_plane_gap: norms from
/// Snapshot::furthest_distance, then recomputed per neighbour, and the
/// sorted largest-gap reference.
Vec2 reference_compute(const KknpsAlgorithm& algo, const Snapshot& snapshot) {
  const KknpsAlgorithm::Params& p = algo.params();
  if (snapshot.empty()) return {0.0, 0.0};
  const double v_y = snapshot.furthest_distance() / (1.0 + p.distance_delta);
  if (v_y <= 0.0) return {0.0, 0.0};
  std::vector<double> directions;
  for (const auto& o : snapshot.neighbours()) {
    if (o.position.norm() > v_y / 2.0) directions.push_back(o.position.angle());
  }
  if (directions.empty()) return {0.0, 0.0};
  const geom::AngularGap gap = oracles::largest_angular_gap(directions);
  if (gap.gap <= kPi + p.halfplane_tolerance) return {0.0, 0.0};
  const double r = algo.safe_radius(v_y);
  return geom::midpoint(unit(directions[gap.after]) * r, unit(directions[gap.before]) * r);
}

TEST(Kknps, DestinationMatchesSortedReferenceBitForBit) {
  // Lattice snapshots (ties on the bucket edges), cones either side of a
  // half-plane, co-located, zero and non-finite offsets, and distance
  // error.
  std::uint64_t moved = 0;
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    const KknpsAlgorithm algo({.k = 1 + seed % 3,
                               .distance_delta = seed % 4 == 0 ? 0.1 : 0.0,
                               .halfplane_tolerance = seed % 5 == 0 ? 0.0 : 1e-12});
    const double start = kPi * (2.0 * u(rng) - 1.0);
    const double widths[] = {kPi * u(rng), geom::kTwoPi, kPi + 0.01 * (2.0 * u(rng) - 1.0)};
    const double width = widths[seed % 3];
    Snapshot s;
    const std::size_t n = 1 + rng() % (seed % 10 == 0 ? 700 : 30);
    for (std::size_t i = 0; i < n; ++i) {
      const int shape = static_cast<int>(rng() % 8);
      if (shape < 4) {
        s.neighbours().push_back({unit(start + width * u(rng)) * (0.05 + u(rng)), false});
      } else if (shape < 6) {
        const double dx = static_cast<double>(static_cast<int>(rng() % 9) - 4) * 0.05;
        const double dy = static_cast<double>(static_cast<int>(rng() % 9) - 4) * 0.05;
        s.neighbours().push_back({{dx, dy}, false});
      } else if (shape == 6 && !s.neighbours().empty()) {
        s.neighbours().push_back(s.neighbours()[rng() % s.neighbours().size()]);
      } else if (rng() % 2 == 0) {
        s.neighbours().push_back({{0.0, -0.0}, false});
      } else {  // non-finite: the V_Y fold must skip a NaN norm as before
        const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity()};
        s.neighbours().push_back({{bad[rng() % 2], 0.5}, false});
      }
    }
    const Vec2 got = algo.compute(s);
    const Vec2 want = reference_compute(algo, s);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.x), std::bit_cast<std::uint64_t>(want.x))
        << "seed " << seed;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.y), std::bit_cast<std::uint64_t>(want.y))
        << "seed " << seed;
    if (want != Vec2{0.0, 0.0}) ++moved;
  }
  EXPECT_GT(moved, 100u);  // both branches of the stay-put rule
  EXPECT_LT(moved, 500u);
}

TEST(Kknps, SafeRadiusFormula) {
  const KknpsAlgorithm a({.k = 4});
  EXPECT_DOUBLE_EQ(a.safe_radius(1.0), 1.0 / 32.0);
  const KknpsAlgorithm b({.k = 2, .radius_divisor = 16.0});
  EXPECT_DOUBLE_EQ(b.safe_radius(1.0), 1.0 / 32.0);
}

TEST(Kknps, CustomRadiusDivisorScalesDestination) {
  const KknpsAlgorithm standard({.k = 1});
  const KknpsAlgorithm cautious({.k = 1, .radius_divisor = 16.0});
  const Snapshot s = snap({{0.8, 0.0}});
  EXPECT_NEAR(cautious.compute(s).norm(), standard.compute(s).norm() / 2.0, 1e-12);
}

TEST(Kknps, SingleNeighbourMovesToSafeRegionCenter) {
  const KknpsAlgorithm algo;
  const Vec2 n{0.8, 0.0};
  const Vec2 dest = algo.compute(snap({n}));
  // V_Y = 0.8; r = 0.1; centre of S^r at (0.1, 0).
  EXPECT_TRUE(geom::almost_equal(dest, {0.1, 0.0}, 1e-12));
}

TEST(Kknps, SingleNeighbourScalesWithK) {
  const KknpsAlgorithm algo4({.k = 4});
  const Vec2 dest = algo4.compute(snap({{0.8, 0.0}}));
  EXPECT_TRUE(geom::almost_equal(dest, {0.025, 0.0}, 1e-12));
}

TEST(Kknps, SurroundedRobotStaysPut) {
  // Three distant neighbours at 120 degrees: no open half-plane contains
  // them all; the safe-region intersection is the current location.
  const KknpsAlgorithm algo;
  const Snapshot s = snap({unit(0.0), unit(2.0 * kPi / 3.0), unit(4.0 * kPi / 3.0)});
  EXPECT_EQ(algo.compute(s), (Vec2{0.0, 0.0}));
}

TEST(Kknps, AntipodalNeighboursStayPut) {
  // Gap exactly pi: contained in a closed half-plane only; tangent safe
  // disks intersect at Y alone.
  const KknpsAlgorithm algo;
  EXPECT_EQ(algo.compute(snap({{1.0, 0.0}, {-1.0, 0.0}})), (Vec2{0.0, 0.0}));
}

TEST(Kknps, TwoNeighboursMoveToMidpointOfCenters) {
  const KknpsAlgorithm algo;
  // Neighbours at +-45 degrees, distance 1: V_Y = 1, r = 1/8.
  const Snapshot s = snap({unit(kPi / 4.0), unit(-kPi / 4.0)});
  const Vec2 dest = algo.compute(s);
  const Vec2 expect = geom::midpoint(unit(kPi / 4.0) * 0.125, unit(-kPi / 4.0) * 0.125);
  EXPECT_TRUE(geom::almost_equal(dest, expect, 1e-12));
  // Symmetric pair: destination on the bisector (+x axis).
  EXPECT_NEAR(dest.y, 0.0, 1e-12);
  EXPECT_GT(dest.x, 0.0);
}

TEST(Kknps, CloseNeighboursDoNotAffectDestination) {
  const KknpsAlgorithm algo;
  const Snapshot without = snap({unit(0.3), unit(-0.2)});
  Snapshot with = without;
  with.neighbours().push_back({unit(1.2) * 0.3, false});  // close: 0.3 <= V_Y/2
  EXPECT_TRUE(geom::almost_equal(algo.compute(without), algo.compute(with), 1e-12));
}

TEST(Kknps, ExtremePairSelection) {
  // Neighbours at angles {0, 0.2, 0.9}: the extreme pair is {0, 0.9}.
  const KknpsAlgorithm algo;
  const Snapshot s = snap({unit(0.0), unit(0.2), unit(0.9)});
  const Vec2 dest = algo.compute(s);
  const double r = 0.125;
  const Vec2 expect = geom::midpoint(unit(0.0) * r, unit(0.9) * r);
  EXPECT_TRUE(geom::almost_equal(dest, expect, 1e-12));
}

TEST(Kknps, ErrorToleranceShrinksWorkingRange) {
  const KknpsAlgorithm exact({.k = 1});
  const KknpsAlgorithm tolerant({.k = 1, .distance_delta = 0.25});
  const Snapshot s = snap({{1.0, 0.0}});
  // V_Y shrinks by 1/(1+delta) => safe radius shrinks by the same factor.
  const Vec2 d0 = exact.compute(s);
  const Vec2 d1 = tolerant.compute(s);
  EXPECT_NEAR(d1.norm(), d0.norm() / 1.25, 1e-12);
}

TEST(Kknps, HalfplaneBoundarySensitivity) {
  const KknpsAlgorithm algo;
  // Slightly less than antipodal: gap just over pi => must move.
  const Vec2 dest = algo.compute(snap({unit(0.0), unit(kPi - 0.01)}));
  EXPECT_GT(dest.norm(), 0.0);
  // Add a third neighbour closing the half-plane: must stay.
  const Vec2 stay = algo.compute(snap({unit(0.0), unit(kPi - 0.01), unit(-kPi / 2.0)}));
  EXPECT_EQ(stay, (Vec2{0.0, 0.0}));
}

struct KParam {
  std::size_t k;
};

class KknpsProperty : public ::testing::TestWithParam<KParam> {};

TEST_P(KknpsProperty, MoveNeverExceedsVOver8) {
  const KknpsAlgorithm algo({.k = GetParam().k});
  std::mt19937_64 rng(500 + GetParam().k);
  std::uniform_real_distribution<double> ang(-kPi, kPi), rad(0.01, 1.0);
  std::uniform_int_distribution<int> count(1, 12);
  for (int trial = 0; trial < 2000; ++trial) {
    Snapshot s;
    for (int i = 0, n = count(rng); i < n; ++i) {
      s.neighbours().push_back({unit(ang(rng)) * rad(rng), false});
    }
    const double v_y = s.furthest_distance();
    EXPECT_LE(algo.compute(s).norm(), v_y / 8.0 + 1e-12);
  }
}

TEST_P(KknpsProperty, DestinationRespectsAllDistantSafeRegions) {
  const std::size_t k = GetParam().k;
  const KknpsAlgorithm algo({.k = k});
  std::mt19937_64 rng(900 + k);
  std::uniform_real_distribution<double> ang(-kPi, kPi), rad(0.05, 1.0);
  std::uniform_int_distribution<int> count(1, 10);
  for (int trial = 0; trial < 2000; ++trial) {
    Snapshot s;
    for (int i = 0, n = count(rng); i < n; ++i) {
      s.neighbours().push_back({unit(ang(rng)) * rad(rng), false});
    }
    const Vec2 dest = algo.compute(s);
    const double v_y = s.furthest_distance();
    const double r = v_y / (8.0 * static_cast<double>(k));
    for (const auto& o : s.neighbours()) {
      if (o.position.norm() > v_y / 2.0) {
        const geom::Circle safe = geom::kknps_safe_region({0.0, 0.0}, o.position, r);
        EXPECT_TRUE(safe.contains(dest, 1e-9))
            << "trial " << trial << ": destination escapes a distant safe region";
      }
    }
  }
}

TEST_P(KknpsProperty, ScaleEquivalence) {
  // dest_k == dest_1 / k for the same snapshot (§3.2: "simply scale the
  // motion function by 1/k").
  const std::size_t k = GetParam().k;
  const KknpsAlgorithm algo1({.k = 1});
  const KknpsAlgorithm algok({.k = k});
  std::mt19937_64 rng(1300 + k);
  std::uniform_real_distribution<double> ang(-kPi, kPi), rad(0.05, 1.0);
  for (int trial = 0; trial < 500; ++trial) {
    Snapshot s;
    for (int i = 0; i < 5; ++i) s.neighbours().push_back({unit(ang(rng)) * rad(rng), false});
    const Vec2 d1 = algo1.compute(s);
    const Vec2 dk = algok.compute(s);
    EXPECT_TRUE(geom::almost_equal(dk, d1 / static_cast<double>(k), 1e-12));
  }
}

TEST_P(KknpsProperty, RotationEquivariance) {
  // The rule is purely geometric: rotating the snapshot rotates the
  // destination (the algorithm works in arbitrary local frames).
  const KknpsAlgorithm algo({.k = GetParam().k});
  std::mt19937_64 rng(1700 + GetParam().k);
  std::uniform_real_distribution<double> ang(-kPi, kPi), rad(0.05, 1.0);
  for (int trial = 0; trial < 500; ++trial) {
    Snapshot s;
    for (int i = 0; i < 4; ++i) s.neighbours().push_back({unit(ang(rng)) * rad(rng), false});
    const double theta = ang(rng);
    Snapshot rotated;
    for (const auto& o : s.neighbours()) rotated.neighbours().push_back({o.position.rotated(theta), false});
    EXPECT_TRUE(
        geom::almost_equal(algo.compute(rotated), algo.compute(s).rotated(theta), 1e-9));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, KknpsProperty,
                         ::testing::Values(KParam{1}, KParam{2}, KParam{4}, KParam{8}),
                         [](const auto& info) { return "k" + std::to_string(info.param.k); });

}  // namespace
}  // namespace cohesion::algo
