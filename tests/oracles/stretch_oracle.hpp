// Reference for core::worst_initial_pair_stretch: every initially-visible
// pair re-derived from scratch on each call, as the edges of the closed
// visibility graph of the initial configuration (core::VisibilityGraph,
// itself pinned to the O(n²) pair loop by tests/core/spatial_index_test.cpp).
// core::InitialPairSweep must reproduce it bit for bit
// (tests/core/stretch_sweep_test.cpp).
#pragma once

#include <algorithm>
#include <vector>

#include "core/visibility.hpp"
#include "geometry/vec2.hpp"

namespace cohesion::oracles {

/// Max over initially-visible pairs of their distance at `positions`,
/// normalized by V. Reads positions[a] for every initial index a. The fold
/// is order-independent (std::max(worst, NaN) keeps worst), so any pair
/// order gives the same double.
inline double worst_initial_pair_stretch(const std::vector<geom::Vec2>& initial,
                                         const std::vector<geom::Vec2>& positions, double v) {
  const core::VisibilityGraph visible(initial, v);
  double worst = 0.0;
  for (const auto& [a, b] : visible.edges()) {
    worst = std::max(worst, positions[a].distance_to(positions[b]) / v);
  }
  return worst;
}

}  // namespace cohesion::oracles
