// geom::half_plane_gap against the sort-based reference
// (tests/oracles/angular_gap_oracle.hpp): the same KKNPS stay/move decision
// (gap <= pi + tol) for every tol >= 0, and the same (gap, before, after)
// bits whenever the reference's gap exceeds pi. The fuzz leans on what
// separates a bucketed pass from a sort: directions on the bucket edges
// (multiples of pi/4), duplicates and signed zeros (index tie-breaks), ±pi
// and angles that normalize to 2*pi, lattice directions as a grid-shaped
// snapshot sees them, and cones just narrower or wider than a half-plane.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "geometry/angles.hpp"
#include "oracles/angular_gap_oracle.hpp"

namespace cohesion::geom {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Checks one direction set at one tolerance; returns whether the
/// reference's gap exceeded pi (so the exact branch was exercised).
bool expect_agrees(const std::vector<double>& dirs, double tol, std::uint64_t seed) {
  const AngularGap want = oracles::largest_angular_gap(dirs);
  const AngularGap got = half_plane_gap(dirs);
  EXPECT_EQ(got.gap <= kPi + tol, want.gap <= kPi + tol)
      << "seed " << seed << " n " << dirs.size() << " tol " << tol << " gap " << got.gap
      << " vs " << want.gap;
  EXPECT_LE(got.gap, want.gap) << "seed " << seed;
  if (want.gap > kPi) {
    EXPECT_EQ(bits(got.gap), bits(want.gap)) << "seed " << seed << " n " << dirs.size();
    EXPECT_EQ(got.before, want.before) << "seed " << seed << " n " << dirs.size();
    EXPECT_EQ(got.after, want.after) << "seed " << seed << " n " << dirs.size();
  }
  return want.gap > kPi;
}

/// A direction set mixing every shape the bucketed pass must get right.
std::vector<double> random_directions(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const std::size_t n = seed % 8 == 0 ? 1 + rng() % 2000 : 1 + rng() % 40;
  // The occupied cone: its width straddles pi, often by a hair.
  const double start = -kPi + kTwoPi * unit(rng);
  const double widths[] = {kTwoPi * unit(rng), kPi * unit(rng), kPi - 1e-12, kPi,
                           kPi + 1e-12,        kPi / 4.0,       0.0,         kTwoPi};
  const double width = widths[rng() % 8];
  // A third of the sets stay inside the cone (and its duplicates), so the
  // exact branch, a gap over pi, is common.
  const int shapes = seed % 3 == 0 ? 8 : 16;
  std::vector<double> dirs;
  for (std::size_t i = 0; i < n; ++i) {
    const int shape = static_cast<int>(rng() % shapes);
    if (dirs.empty() || shape < 6) {
      dirs.push_back(start + width * unit(rng));
    } else if (shape < 8) {  // duplicate
      dirs.push_back(dirs[rng() % dirs.size()]);
    } else if (shape < 10) {  // bucket edges k*pi/4, also outside [-pi, pi]
      dirs.push_back(static_cast<double>(static_cast<int>(rng() % 25) - 12) * (kPi / 4.0));
    } else if (shape < 12) {  // lattice offsets, as a grid snapshot sees them
      const double dx = static_cast<double>(static_cast<int>(rng() % 9) - 4);
      const double dy = static_cast<double>(static_cast<int>(rng() % 9) - 4);
      dirs.push_back(std::atan2(dy, dx));
    } else if (shape == 12) {  // signed zeros and ±pi from atan2
      const double zs[] = {0.0, -0.0, std::atan2(0.0, -1.0), std::atan2(-0.0, -1.0)};
      dirs.push_back(zs[rng() % 4]);
    } else if (shape == 13) {  // normalizes to 2*pi or to just below it
      const double edge[] = {-1e-17, -1e-300, kTwoPi, -kTwoPi, 3.0 * kTwoPi - 1e-16};
      dirs.push_back(edge[rng() % 5]);
    } else {  // the cone's ends exactly
      dirs.push_back(rng() % 2 ? start : start + width);
    }
  }
  return dirs;
}

TEST(HalfPlaneGap, DifferentialFuzzAgainstSortedReference) {
  const double tols[] = {0.0, 1e-12, 1e-6, 0.5, 1.0};
  std::size_t exact = 0;
  for (std::uint64_t seed = 1; seed <= 2400; ++seed) {
    const std::vector<double> dirs = random_directions(seed);
    std::mt19937_64 rng(seed ^ 0x5eed);
    const double tol = seed % 6 == 5 ? std::uniform_real_distribution<double>(0.0, 1.0)(rng)
                                     : tols[seed % 5];
    if (expect_agrees(dirs, tol, seed)) ++exact;
    if (HasFailure()) return;
  }
  // Both branches must actually be exercised.
  EXPECT_GT(exact, 600u);
  EXPECT_LT(exact, 2000u);
}

TEST(HalfPlaneGap, EdgeCases) {
  EXPECT_THROW((void)half_plane_gap({}), std::invalid_argument);
  const AngularGap one = half_plane_gap({0.7});
  EXPECT_EQ(bits(one.gap), bits(kTwoPi));
  EXPECT_EQ(one.before, 0u);
  EXPECT_EQ(one.after, 0u);
  const std::vector<std::vector<double>> cases = {
      {0.0, kPi},                                 // exactly a half-plane
      {0.0, -0.0, 0.0},                           // signed-zero ties
      {kPi, -kPi},                                // ±pi coincide after normalizing
      {-1e-17, 0.0},                              // 2*pi and 0: a zero-width wrap
      {0.0, kPi / 4.0, kPi / 2.0, 3.0 * kPi / 4.0},  // every bucket edge of a cone
      {kPi / 4.0, kPi / 4.0, 2.0, 2.0},           // duplicates on both sides of the gap
      {1.0, 1.0 + kPi + 1e-12},                   // a gap just over pi
      {1.0, 1.0 + kPi - 1e-12},
  };
  for (const double tol : {0.0, 1e-12, 1.0}) {
    for (std::size_t c = 0; c < cases.size(); ++c) expect_agrees(cases[c], tol, c);
  }
  // A cone whose members share one bucket: the wrap gap, with the last
  // index among the largest and the first among the smallest.
  const AngularGap g = half_plane_gap({0.2, 0.1, 0.2, 0.1});
  EXPECT_EQ(g.before, 2u);
  EXPECT_EQ(g.after, 1u);
}

}  // namespace
}  // namespace cohesion::geom
