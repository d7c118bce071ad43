#include "algo/baselines.hpp"

#include <gtest/gtest.h>

#include <random>

#include "algo/lens_midpoint.hpp"
#include "geometry/angles.hpp"
#include "geometry/safe_region.hpp"
#include "geometry/smallest_enclosing_circle.hpp"

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

Snapshot random_snapshot(std::mt19937_64& rng, int max_n, double max_r) {
  std::uniform_real_distribution<double> ang(-kPi, kPi), rad(0.05, max_r);
  std::uniform_int_distribution<int> count(1, max_n);
  Snapshot s;
  for (int i = 0, n = count(rng); i < n; ++i) {
    s.neighbours().push_back({unit(ang(rng)) * rad(rng), false});
  }
  return s;
}

// ---------- Ando ----------

TEST(Ando, EmptyStaysPut) {
  const AndoAlgorithm algo(1.0);
  EXPECT_EQ(algo.compute({}), (Vec2{0.0, 0.0}));
}

TEST(Ando, PairMovesToMidpoint) {
  // SEC centre of {self, neighbour} is the midpoint; safe disk allows it.
  const AndoAlgorithm algo(1.0);
  const Vec2 dest = algo.compute(snap({{0.8, 0.0}}));
  EXPECT_TRUE(geom::almost_equal(dest, {0.4, 0.0}, 1e-9));
}

TEST(Ando, RespectsAllSafeDisks) {
  const double v = 1.0;
  const AndoAlgorithm algo(v);
  std::mt19937_64 rng(61);
  for (int trial = 0; trial < 2000; ++trial) {
    const Snapshot s = random_snapshot(rng, 8, v);
    const Vec2 dest = algo.compute(s);
    for (const auto& o : s.neighbours()) {
      const geom::Circle disk = geom::ando_safe_region({0.0, 0.0}, o.position, v);
      EXPECT_TRUE(disk.contains(dest, 1e-7));
    }
  }
}

TEST(Ando, MovesTowardSecCenter) {
  const AndoAlgorithm algo(1.0);
  std::mt19937_64 rng(62);
  for (int trial = 0; trial < 500; ++trial) {
    const Snapshot s = random_snapshot(rng, 6, 1.0);
    const Vec2 dest = algo.compute(s);
    if (dest.norm() < 1e-12) continue;
    std::vector<Vec2> pts{{0.0, 0.0}};
    for (const auto& o : s.neighbours()) pts.push_back(o.position);
    const Vec2 goal = geom::smallest_enclosing_circle(pts).center;
    // Destination is on the ray to the SEC centre.
    EXPECT_NEAR(dest.normalized().dot(goal.normalized()), 1.0, 1e-9);
    EXPECT_LE(dest.norm(), goal.norm() + 1e-9);
  }
}

TEST(Ando, UnknownVFallsBackToFurthest) {
  const AndoAlgorithm algo(0.0);  // v <= 0 => use furthest neighbour
  const Vec2 dest = algo.compute(snap({{0.5, 0.0}}));
  EXPECT_GT(dest.norm(), 0.0);
}

// ---------- Katreniak ----------

TEST(Katreniak, EmptyStaysPut) {
  const KatreniakAlgorithm algo;
  EXPECT_EQ(algo.compute({}), (Vec2{0.0, 0.0}));
}

TEST(Katreniak, DestinationInsideEveryRegion) {
  const KatreniakAlgorithm algo;
  std::mt19937_64 rng(63);
  for (int trial = 0; trial < 2000; ++trial) {
    const Snapshot s = random_snapshot(rng, 8, 1.0);
    const double v_z = s.furthest_distance();
    const Vec2 dest = algo.compute(s);
    for (const auto& o : s.neighbours()) {
      const auto region = geom::katreniak_safe_region({0.0, 0.0}, o.position, v_z);
      EXPECT_TRUE(region.contains(dest, 1e-6))
          << "trial " << trial << " dest " << dest.x << "," << dest.y;
    }
  }
}

TEST(Katreniak, SymmetricPairConverges) {
  // Two robots at distance d see each other; each may move toward the
  // midpoint but at most d/4 + 0 (near disk reaches to the midpoint of
  // [Y, X] only at d/2): destination stays strictly between.
  const KatreniakAlgorithm algo;
  const Vec2 dest = algo.compute(snap({{1.0, 0.0}}));
  EXPECT_GT(dest.x, 0.0);
  EXPECT_LE(dest.x, 0.5 + 1e-9);
}

// ---------- CoG / GCM ----------

TEST(Cog, MovesToCentroid) {
  const CogAlgorithm algo;
  const Vec2 dest = algo.compute(snap({{1.0, 0.0}, {0.0, 1.0}, {-1.0, 0.0}, {0.0, -1.0}}));
  EXPECT_TRUE(geom::almost_equal(dest, {0.0, 0.0}, 1e-12));
  const Vec2 dest2 = algo.compute(snap({{1.0, 1.0}}));
  EXPECT_TRUE(geom::almost_equal(dest2, {0.5, 0.5}, 1e-12));
}

TEST(Cog, CentroidIncludesSelf) {
  const CogAlgorithm algo;
  const Vec2 dest = algo.compute(snap({{3.0, 0.0}, {0.0, 3.0}}));
  EXPECT_TRUE(geom::almost_equal(dest, {1.0, 1.0}, 1e-12));
}

TEST(Gcm, MovesToMinboxCenter) {
  const GcmAlgorithm algo;
  const Vec2 dest = algo.compute(snap({{2.0, 0.0}, {0.0, 4.0}}));
  EXPECT_TRUE(geom::almost_equal(dest, {1.0, 2.0}, 1e-12));
}

TEST(Gcm, EmptyStaysPut) {
  const GcmAlgorithm algo;
  EXPECT_EQ(algo.compute({}), (Vec2{0.0, 0.0}));
}

TEST(Null, NeverMoves) {
  const NullAlgorithm algo;
  EXPECT_EQ(algo.compute(snap({{1.0, 0.0}})), (Vec2{0.0, 0.0}));
}

// ---------- LensMidpoint (the Section-7 victim) ----------

TEST(LensMidpoint, MovesToProjectionOnChord) {
  const LensMidpointAlgorithm algo;
  // Neighbours symmetric about the y-axis, both one unit away, forming an
  // interior angle < pi: projection lands on the chord.
  const Vec2 p = unit(kPi / 2.0 + 0.3), r = unit(kPi / 2.0 - 0.3);
  const Vec2 dest = algo.compute(snap({p, r}));
  EXPECT_NEAR(dest.x, 0.0, 1e-12);
  EXPECT_NEAR(dest.y, std::cos(0.3), 1e-9);
  // Stays in the lens: within distance 1 of both neighbours.
  EXPECT_LE(dest.distance_to(p), 1.0 + 1e-9);
  EXPECT_LE(dest.distance_to(r), 1.0 + 1e-9);
}

TEST(LensMidpoint, EssentiallyColinearStaysPut) {
  const LensMidpointAlgorithm algo({.colinearity_tolerance = 1e-3});
  const Vec2 dest = algo.compute(snap({{-1.0, 0.0}, {1.0, 1e-5}}));
  EXPECT_EQ(dest, (Vec2{0.0, 0.0}));
}

TEST(LensMidpoint, WrongNeighbourCountStaysPut) {
  const LensMidpointAlgorithm algo;
  EXPECT_EQ(algo.compute(snap({{1.0, 0.0}})), (Vec2{0.0, 0.0}));
  EXPECT_EQ(algo.compute(snap({{1.0, 0.0}, {0.0, 1.0}, {-1.0, 0.0}})), (Vec2{0.0, 0.0}));
}

TEST(LensMidpoint, MoveReducesDeviationFromColinearity) {
  const LensMidpointAlgorithm algo({.colinearity_tolerance = 1e-9});
  std::mt19937_64 rng(64);
  std::uniform_real_distribution<double> ang(0.1, kPi - 0.1);
  for (int trial = 0; trial < 300; ++trial) {
    const double half = ang(rng) / 2.0;
    const Vec2 p = unit(kPi / 2.0 + half), r = unit(kPi / 2.0 - half);
    const Vec2 dest = algo.compute(snap({p, r}));
    const double before = kPi - geom::interior_angle(p, {0.0, 0.0}, r);
    const double after = kPi - geom::interior_angle(p, dest, r);
    EXPECT_LT(after, before + 1e-9);
    EXPECT_NEAR(after, 0.0, 1e-9);  // projection achieves co-linearity
  }
}

}  // namespace
}  // namespace cohesion::algo
