// Sort-based reference for geom::half_plane_gap: the largest angular gap
// between consecutive directions, found by sorting the normalized
// directions by (angle, index), O(n log n) per call. half_plane_gap must
// reproduce it bit for bit whenever the gap exceeds pi and make the same
// KKNPS stay/move decision always (tests/geometry/angles_test.cpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "geometry/angles.hpp"

namespace cohesion::oracles {

/// Largest angular gap between consecutive directions (sorted ccw).
///
/// `directions` must be non-empty; for a single direction the gap is 2*pi
/// with before == after == 0. Ties broken toward the smallest index.
inline geom::AngularGap largest_angular_gap(const std::vector<double>& directions) {
  if (directions.empty()) throw std::invalid_argument("largest_angular_gap: empty input");
  const std::size_t n = directions.size();
  if (n == 1) return geom::AngularGap{geom::kTwoPi, 0, 0};

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> norm(n);
  for (std::size_t i = 0; i < n; ++i) norm[i] = geom::normalize_angle(directions[i]);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (norm[a] != norm[b]) return norm[a] < norm[b];
    return a < b;
  });

  geom::AngularGap best;
  best.gap = -1.0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t cur = order[i];
    const std::size_t nxt = order[(i + 1) % n];
    double gap = norm[nxt] - norm[cur];
    if (i + 1 == n) gap += geom::kTwoPi;
    if (gap > best.gap) {
      best.gap = gap;
      best.before = cur;
      best.after = nxt;
    }
  }
  return best;
}

}  // namespace cohesion::oracles
