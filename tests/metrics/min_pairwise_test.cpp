// The grid-accelerated min_pairwise_distance must agree with the brute
// force bit-for-bit: the expanding-radius query changes which pairs are
// examined, never the distance arithmetic, and min() is order-independent.
#include <gtest/gtest.h>

#include <random>

#include "metrics/configurations.hpp"
#include "metrics/stats.hpp"
#include "oracles/min_pairwise_oracle.hpp"

namespace cohesion::metrics {
namespace {

using geom::Vec2;

TEST(MinPairwise, DegenerateInputs) {
  EXPECT_EQ(min_pairwise_distance({}), 0.0);
  EXPECT_EQ(min_pairwise_distance({{3.0, 4.0}}), 0.0);
  EXPECT_EQ(oracles::min_pairwise_distance_brute({{3.0, 4.0}}), 0.0);
  EXPECT_EQ(min_pairwise_distance({{1.0, 2.0}, {1.0, 2.0}}), 0.0);  // coincident
  EXPECT_EQ(min_pairwise_distance({{1.0, 2.0}, {4.0, 6.0}}), 5.0);
}

TEST(MinPairwise, AllCoincident) {
  const std::vector<Vec2> pts(17, Vec2{2.5, -1.0});
  EXPECT_EQ(min_pairwise_distance(pts), 0.0);
}

TEST(MinPairwise, MatchesBruteOnGenerators) {
  for (const std::size_t n : {2u, 3u, 10u, 64u, 199u}) {
    const auto line = line_configuration(n, 0.7);
    EXPECT_EQ(min_pairwise_distance(line), oracles::min_pairwise_distance_brute(line)) << "line " << n;
    const auto grid = grid_configuration(n, 1.3);
    EXPECT_EQ(min_pairwise_distance(grid), oracles::min_pairwise_distance_brute(grid)) << "grid " << n;
    if (n >= 3) {
      const auto ring = regular_polygon_configuration(n, 0.9);
      EXPECT_EQ(min_pairwise_distance(ring), oracles::min_pairwise_distance_brute(ring)) << "ring " << n;
    }
  }
}

TEST(MinPairwise, MatchesBruteOnRandomClouds) {
  std::mt19937_64 rng(77);
  for (int trial = 0; trial < 60; ++trial) {
    std::uniform_int_distribution<std::size_t> count(2, 120);
    std::uniform_real_distribution<double> scale(1e-3, 1e3);
    std::uniform_real_distribution<double> coord(-1.0, 1.0);
    const std::size_t n = count(rng);
    const double s = scale(rng);
    std::vector<Vec2> pts;
    pts.reserve(n);
    for (std::size_t i = 0; i < n; ++i) pts.push_back({coord(rng) * s, coord(rng) * s});
    // Occasionally inject duplicates and near-duplicates.
    if (trial % 3 == 0) pts.push_back(pts.front());
    if (trial % 4 == 0) pts.push_back(pts.back() + Vec2{1e-9 * s, 0.0});
    EXPECT_EQ(min_pairwise_distance(pts), oracles::min_pairwise_distance_brute(pts)) << "trial " << trial;
  }
}

TEST(MinPairwise, OutlierDoesNotForceFullExpansion) {
  // A tight cluster plus one far outlier: the early-exit (best <= radius)
  // must still return the exact cluster minimum.
  std::vector<Vec2> pts;
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> coord(0.0, 1.0);
  for (int i = 0; i < 50; ++i) pts.push_back({coord(rng), coord(rng)});
  pts.push_back({1e6, 1e6});
  EXPECT_EQ(min_pairwise_distance(pts), oracles::min_pairwise_distance_brute(pts));
}

TEST(MinPairwise, ConfigurationStatsUsesIt) {
  const auto pts = random_connected_configuration(40, 2.0, 1.0, 9);
  const ConfigurationStats s = configuration_stats(pts, 1.0);
  EXPECT_EQ(s.min_pairwise, oracles::min_pairwise_distance_brute(pts));
}

}  // namespace
}  // namespace cohesion::metrics
