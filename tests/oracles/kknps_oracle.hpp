// Eager reference for algo::KknpsAlgorithm::compute: the destination rule
// as it read before lazy perception — every neighbour's exact norm, V_Y as
// their maximum, and the exact direction of every distant neighbour into
// geom::half_plane_gap. The lazy rule, which decides on staged proxies and
// materializes only inside certified bands, must reproduce it bit for bit
// (tests/algo/lazy_kknps_test.cpp).
#pragma once

#include <algorithm>
#include <vector>

#include "algo/kknps.hpp"
#include "core/snapshot.hpp"
#include "geometry/angles.hpp"
#include "geometry/vec2.hpp"

namespace cohesion::oracles {

inline geom::Vec2 eager_kknps(const algo::KknpsAlgorithm& algo, const core::Snapshot& snapshot) {
  using geom::Vec2;
  const algo::KknpsAlgorithm::Params& params_ = algo.params();
  if (snapshot.empty()) return {0.0, 0.0};
  const std::vector<core::ObservedRobot>& neighbours = snapshot.neighbours();

  // One norm per neighbour: their maximum is V_Y, folded exactly as
  // Snapshot::furthest_distance folds it, and the buffer is then compacted
  // in place into the directions of the distant neighbours.
  const std::size_t m = snapshot.size();
  std::vector<double> buf(m);
  double v_y = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    buf[i] = neighbours[i].position.norm();
    v_y = std::max(v_y, buf[i]);
  }
  // §6.1: guard against distance over-estimation.
  v_y /= (1.0 + params_.distance_delta);
  if (v_y <= 0.0) return {0.0, 0.0};

  std::size_t distant = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (buf[i] > v_y / 2.0) buf[distant++] = neighbours[i].position.angle();
  }
  if (distant == 0) return {0.0, 0.0};  // cannot happen with delta == 0
  buf.resize(distant);

  const geom::AngularGap gap = geom::half_plane_gap(buf);
  if (gap.gap <= geom::kPi + params_.halfplane_tolerance) {
    // Y lies in the convex hull of its distant neighbours: the intersection
    // of safe regions is exactly {Y} — stay put.
    return {0.0, 0.0};
  }

  const double r = algo.safe_radius(v_y);
  // The two distant neighbours bounding the occupied sector are the ones on
  // either side of the largest gap.
  const Vec2 c1 = geom::unit(buf[gap.after]) * r;
  const Vec2 c2 = geom::unit(buf[gap.before]) * r;
  return geom::midpoint(c1, c2);
}

}  // namespace cohesion::oracles
