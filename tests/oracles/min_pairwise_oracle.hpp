// Brute-force reference for metrics::min_pairwise_distance: the O(n^2)
// scan over every pair. The grid-accelerated version changes which pairs
// are examined, never the distance arithmetic, and min() is
// order-independent, so the two must agree bit for bit
// (tests/metrics/min_pairwise_test.cpp).
#pragma once

#include <algorithm>
#include <limits>
#include <vector>

#include "geometry/vec2.hpp"

namespace cohesion::oracles {

/// Exact minimum pairwise distance (0 for fewer than two points).
inline double min_pairwise_distance_brute(const std::vector<geom::Vec2>& positions) {
  if (positions.size() < 2) return 0.0;
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < positions.size(); ++i) {
    for (std::size_t j = i + 1; j < positions.size(); ++j) {
      best = std::min(best, positions[i].distance_to(positions[j]));
    }
  }
  return best;
}

}  // namespace cohesion::oracles
