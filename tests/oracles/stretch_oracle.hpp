// Reference for core::worst_initial_pair_stretch: every initially-visible
// pair re-derived from scratch on each call, by an O(n²) pair loop below
// 64 robots (or for a non-positive / NaN radius) and by one SpatialGrid
// neighbour query per robot above. core::InitialPairSweep must reproduce
// it bit for bit (tests/core/stretch_sweep_test.cpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/spatial_index.hpp"
#include "geometry/vec2.hpp"

namespace cohesion::oracles {

/// Below this size the reference scans all pairs instead of building a grid.
inline constexpr std::size_t kStretchGridThreshold = 64;

/// Max over initially-visible pairs of their distance at `positions`,
/// normalized by V. Reads positions[a] for every initial index a.
inline double worst_initial_pair_stretch(const std::vector<geom::Vec2>& initial,
                                         const std::vector<geom::Vec2>& positions, double v) {
  double worst = 0.0;
  if (initial.size() < kStretchGridThreshold || !(v > 0.0)) {
    for (std::size_t a = 0; a < initial.size(); ++a) {
      for (std::size_t b = a + 1; b < initial.size(); ++b) {
        if (initial[a].distance_to(initial[b]) <= v + core::kVisibilityEpsilon) {
          worst = std::max(worst, positions[a].distance_to(positions[b]) / v);
        }
      }
    }
    return worst;
  }
  // The initially-visible pairs are a fixed-radius neighbor query over the
  // *initial* configuration; enumerate them through a grid and evaluate the
  // stretch at `positions`. Same pair set as the pairwise loop, and max() is
  // order-independent, so the result is identical.
  core::SpatialGrid grid(v);
  grid.rebuild(initial);
  std::vector<std::size_t> nbrs;
  for (std::size_t a = 0; a < initial.size(); ++a) {
    grid.neighbors_within(initial[a], v, /*open_ball=*/false, nbrs);
    for (const std::size_t b : nbrs) {
      if (b > a) worst = std::max(worst, positions[a].distance_to(positions[b]) / v);
    }
  }
  return worst;
}

}  // namespace cohesion::oracles
