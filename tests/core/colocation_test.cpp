// The hashed co-location kernel must reproduce the all-pairs reference
// (tests/oracles/colocation_oracle.hpp) bit for bit: the same survivors in
// the same order when collapsing, the same flags when detecting
// multiplicity. The differential fuzz leans on the cases that separate the
// two: exact duplicates, grid columns sharing an x value, offsets on and
// around eps that chain non-transitively, signed zeros, non-finite and
// overflowing coordinates; the boundary tests on positions at and around
// cell edges, where the cells' arithmetic changes regime, and DBL_MAX.
#include "core/colocation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "oracles/colocation_oracle.hpp"

namespace cohesion::core {
namespace {

using geom::Vec2;

std::vector<ObservedRobot> observed(const std::vector<Vec2>& points) {
  std::vector<ObservedRobot> out;
  for (const Vec2 p : points) out.push_back({p, false});
  return out;
}

/// The kernel on an exact snapshot of `nb`, written back.
void collapse(ColocationIndex& index, std::vector<ObservedRobot>& nb) {
  Snapshot s(nb);
  index.collapse(s);
  nb = s.neighbours();
}
void flag(ColocationIndex& index, std::vector<ObservedRobot>& nb) {
  Snapshot s(nb);
  index.flag(s);
  nb = s.neighbours();
}

void expect_same(const std::vector<ObservedRobot>& got, const std::vector<ObservedRobot>& want,
                 std::uint64_t seed) {
  ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].position.x),
              std::bit_cast<std::uint64_t>(want[i].position.x))
        << "seed " << seed << " at " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].position.y),
              std::bit_cast<std::uint64_t>(want[i].position.y))
        << "seed " << seed << " at " << i;
    EXPECT_EQ(got[i].multiplicity, want[i].multiplicity) << "seed " << seed << " at " << i;
  }
}

/// A snapshot mixing every shape the kernel must get right.
std::vector<ObservedRobot> random_snapshot(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  const std::size_t k = std::uniform_int_distribution<std::size_t>(0, 320)(rng);
  // Offsets straddling eps: below, at (rounding either way) and above it.
  const double nudges[] = {0.0,    0.4e-12, 0.6e-12,  1e-12,  -1e-12,
                           1.1e-12, -0.6e-12, 2e-12, -2e-12, 0.5e-12};
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<Vec2> pts;
  for (std::size_t i = 0; i < k; ++i) {
    const int shape = static_cast<int>(rng() % 16);
    if (pts.empty() || shape < 4) {
      pts.push_back({unit(rng), unit(rng)});
    } else if (shape < 7) {  // exact duplicate
      pts.push_back(pts[rng() % pts.size()]);
    } else if (shape < 11) {  // near duplicate, possibly chaining
      const Vec2 base = pts[rng() % pts.size()];
      pts.push_back({base.x + nudges[rng() % 10], base.y + nudges[rng() % 10]});
    } else if (shape < 13) {  // grid column / row: one shared coordinate
      const Vec2 base = pts[rng() % pts.size()];
      pts.push_back(rng() % 2 ? Vec2{base.x, unit(rng)} : Vec2{unit(rng), base.y});
    } else if (shape == 13) {  // signed zeros
      pts.push_back({rng() % 2 ? 0.0 : -0.0, rng() % 2 ? 0.0 : -0.0});
    } else if (shape == 14) {  // non-finite
      const double bad[] = {std::numeric_limits<double>::quiet_NaN(), inf, -inf};
      pts.push_back(rng() % 2 ? Vec2{bad[rng() % 3], unit(rng)} : Vec2{unit(rng), bad[rng() % 3]});
    } else {  // huge: differences overflow to inf
      const double big = std::numeric_limits<double>::max();
      pts.push_back({rng() % 2 ? big : -big, rng() % 2 ? big : unit(rng)});
    }
  }
  return observed(pts);
}

TEST(Colocation, CollapseKeepsFirstOfEachLocationInOrder) {
  ColocationIndex index;
  auto nb = observed({{0.5, 0.5}, {0.1, 0.2}, {0.5, 0.5}, {0.1, 0.2 + 0.5e-12}, {0.3, 0.0}});
  collapse(index, nb);
  ASSERT_EQ(nb.size(), 3u);
  EXPECT_EQ(nb[0].position, Vec2(0.5, 0.5));
  EXPECT_EQ(nb[1].position, Vec2(0.1, 0.2));
  EXPECT_EQ(nb[2].position, Vec2(0.3, 0.0));
}

TEST(Colocation, ChainsCollapseGreedilyAgainstKeptOnly) {
  // 0 ~ a ~ b but 0 !~ b: the middle link decides the outcome, and which
  // robot comes first in the snapshot decides the middle link.
  const double a = 0.7e-12, b = 1.4e-12;
  ColocationIndex index;
  auto ends_kept = observed({{0.0, 0.0}, {a, 0.0}, {b, 0.0}});
  collapse(index, ends_kept);
  ASSERT_EQ(ends_kept.size(), 2u);
  EXPECT_EQ(ends_kept[1].position.x, b);

  auto middle_kept = observed({{a, 0.0}, {0.0, 0.0}, {b, 0.0}});
  collapse(index, middle_kept);
  ASSERT_EQ(middle_kept.size(), 1u);
  EXPECT_EQ(middle_kept[0].position.x, a);

  auto flagged = observed({{0.0, 0.0}, {a, 0.0}, {b, 0.0}, {5.0, 0.0}});
  flag(index, flagged);
  EXPECT_TRUE(flagged[0].multiplicity && flagged[1].multiplicity && flagged[2].multiplicity);
  EXPECT_FALSE(flagged[3].multiplicity);
}

TEST(Colocation, NonFinitePositionsAreNeverColocated) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  ColocationIndex index;
  auto nb = observed({{nan, 0.0}, {nan, 0.0}, {inf, 1.0}, {inf, 1.0}, {0.0, 0.0}});
  collapse(index, nb);
  EXPECT_EQ(nb.size(), 5u);
  flag(index, nb);
  for (const auto& o : nb) EXPECT_FALSE(o.multiplicity);
}

TEST(Colocation, DenseGridMatchesReference) {
  // The dense-start shape: a whole lattice in view, every column sharing
  // its x exactly, plus a co-located copy of every third site.
  std::vector<Vec2> pts;
  for (int i = 0; i < 30; ++i) {
    for (int j = 0; j < 30; ++j) pts.push_back({0.05 * (i - 15), 0.05 * (j - 15)});
  }
  for (std::size_t i = 0; i < 900; i += 3) pts.push_back(pts[(i * 7) % 900]);
  ColocationIndex index;
  for (const bool detect : {false, true}) {
    auto got = observed(pts), want = observed(pts);
    if (detect) {
      flag(index, got);
      oracles::flag_colocated(want);
    } else {
      collapse(index, got);
      oracles::collapse_colocated(want);
    }
    expect_same(got, want, detect);
  }
}

TEST(Colocation, GatheredClusterCostsLinearWork) {
  // A converged swarm: 1000 distinct x values inside one eps-wide strip,
  // in shuffled snapshot order. Every equal-x run holds one key, so an
  // unbounded walk to the single kept key would cost O(m) per query.
  constexpr std::size_t m = 1000;
  std::vector<Vec2> pts;
  for (std::size_t i = 0; i < m; ++i) pts.push_back({0.3 + static_cast<double>(i) * 1e-15, 0.3});
  std::shuffle(pts.begin(), pts.end(), std::mt19937_64(7));
  ColocationIndex index;
  for (const bool detect : {false, true}) {
    auto got = observed(pts), want = observed(pts);
    if (detect) {
      flag(index, got);
      oracles::flag_colocated(want);
    } else {
      collapse(index, got);
      oracles::collapse_colocated(want);
    }
    expect_same(got, want, detect);
    EXPECT_LE(index.probes(), 4 * m) << "detect " << detect;
  }
}

/// Both rules on `pts` in every listed order, against the reference.
void expect_matches_reference(ColocationIndex& index, std::vector<Vec2> pts,
                              std::uint64_t tag) {
  for (std::uint64_t order = 0; order < 4; ++order) {
    if (order > 0) std::shuffle(pts.begin(), pts.end(), std::mt19937_64(order));
    auto got = observed(pts), want = observed(pts);
    collapse(index, got);
    oracles::collapse_colocated(want);
    expect_same(got, want, tag * 10 + order);
    got = observed(pts);
    want = observed(pts);
    flag(index, got);
    oracles::flag_colocated(want);
    expect_same(got, want, tag * 10 + order);
  }
}

/// Coordinates at and around `b`: ulp steps, ±eps (and the ulps around
/// those), ±eps/2 and ±2·eps.
std::vector<double> around(double b) {
  constexpr double e = kColocationEps;
  std::vector<double> out;
  for (const double c : {b, b + e, b - e}) {
    double up = c, down = c;
    out.push_back(c);
    for (int k = 0; k < 3; ++k) {
      up = std::nextafter(up, std::numeric_limits<double>::infinity());
      down = std::nextafter(down, -std::numeric_limits<double>::infinity());
      out.push_back(up);
      out.push_back(down);
    }
  }
  for (const double d : {e / 2, -e / 2, 2 * e, -2 * e}) out.push_back(b + d);
  return out;
}

TEST(Colocation, CellBoundariesMatchReference) {
  // Cells are 8·eps wide: 0.3 sits exactly on an edge (0.3 / 8e-12 rounds
  // to 3.75e10), cell indices reach 2^52 (truncated through int64 below,
  // the value itself above) and 2^53 (where stepping to the next cell
  // switches from +1 to nextafter) near 3.6e4 and 7.2e4, and DBL_MAX /
  // 8e-12 overflows to an infinite cell.
  constexpr double w = 8.0 * kColocationEps;
  const double edges[] = {0.3,          -0.3,         0.0,           w,
                          -w,           kColocationEps, 0x1p52 * w,  -0x1p52 * w,
                          0x1p53 * w,   -0x1p53 * w,  DBL_MAX,       -DBL_MAX,
                          DBL_MAX / 2};
  ColocationIndex index;
  std::uint64_t tag = 0;
  for (const double bx : edges) {
    const std::vector<double> xs = around(bx);
    // One row at y = 0.3 (also a cell edge) and one column at the same
    // edge on both axes.
    std::vector<Vec2> pts;
    for (const double x : xs) pts.push_back({x, 0.3});
    for (const double y : xs) pts.push_back({bx, y});
    expect_matches_reference(index, pts, ++tag);
    if (HasFailure()) return;
  }
}

TEST(Colocation, PartnersAcrossZeroAreFound) {
  // eps and -1e-30 are co-located (eps + 1e-30 rounds to eps), and
  // fl(eps - eps) = 0 is their lower probe edge: a floored cell would put
  // -1e-30 in the cell below and miss the pair.
  ColocationIndex index;
  auto nb = observed({{kColocationEps, 0.0}, {-1e-30, 0.0}, {0.0, -kColocationEps},
                      {0.0, 1e-30}});
  auto want = nb;
  flag(index, nb);
  oracles::flag_colocated(want);
  expect_same(nb, want, 0);
  for (const auto& o : nb) EXPECT_TRUE(o.multiplicity);
  expect_matches_reference(index,
                           {{kColocationEps, 0.0}, {-1e-30, 0.0}, {-kColocationEps, 0.0},
                            {1e-30, -0.0}, {-0.0, kColocationEps}},
                           1);
}

TEST(Colocation, EpsStripColumnCostsLinearWork) {
  // A column of m x values inside one eps-wide strip with y values far
  // apart: no pair is co-located, and every query's cells hold only itself.
  constexpr std::size_t m = 1000;
  std::vector<Vec2> pts;
  for (std::size_t i = 0; i < m; ++i) {
    pts.push_back({0.3 + static_cast<double>(i) * 1e-15, static_cast<double>(i)});
  }
  std::shuffle(pts.begin(), pts.end(), std::mt19937_64(11));
  ColocationIndex index;
  auto got = observed(pts), want = observed(pts);
  flag(index, got);
  oracles::flag_colocated(want);
  expect_same(got, want, 0);
  EXPECT_LE(index.probes(), 4 * m);
  got = observed(pts);
  collapse(index, got);
  EXPECT_EQ(got.size(), m);
  EXPECT_LE(index.probes(), 4 * m);
}

TEST(Colocation, DifferentialFuzzAgainstAllPairsReference) {
  // One index reused across every snapshot, as the engine reuses it.
  ColocationIndex index;
  for (std::uint64_t seed = 1; seed <= 3000; ++seed) {
    const auto snapshot = random_snapshot(seed);
    auto got = snapshot, want = snapshot;
    collapse(index, got);
    oracles::collapse_colocated(want);
    expect_same(got, want, seed);

    got = snapshot;
    want = snapshot;
    flag(index, got);
    oracles::flag_colocated(want);
    expect_same(got, want, seed);
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace cohesion::core
