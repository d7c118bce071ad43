#include "algo/kknps.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "geometry/angles.hpp"

namespace cohesion::algo {

using core::Snapshot;
using geom::Vec2;

KknpsAlgorithm::KknpsAlgorithm() : KknpsAlgorithm(Params{}) {}

KknpsAlgorithm::KknpsAlgorithm(Params params) : params_(params) {
  if (params.k == 0) throw std::invalid_argument("KknpsAlgorithm: k must be >= 1");
  if (!std::isfinite(params.distance_delta) || params.distance_delta < 0.0) {
    throw std::invalid_argument("KknpsAlgorithm: distance_delta must be finite and >= 0");
  }
  if (!std::isfinite(params.radius_divisor) || params.radius_divisor <= 2.0) {
    // Divisor 2 would allow a planned move of V_Y, trivially unsafe.
    throw std::invalid_argument("KknpsAlgorithm: radius_divisor must be finite and exceed 2");
  }
  if (!std::isfinite(params.halfplane_tolerance) || params.halfplane_tolerance < 0.0) {
    // geom::half_plane_gap is exact only for thresholds >= pi.
    throw std::invalid_argument("KknpsAlgorithm: halfplane_tolerance must be finite and >= 0");
  }
}

Vec2 KknpsAlgorithm::compute(const Snapshot& snapshot) const {
  if (snapshot.empty()) return {0.0, 0.0};

  // One norm per neighbour: their maximum is V_Y, folded exactly as
  // Snapshot::furthest_distance folds it, and the buffer is then compacted
  // in place into the directions of the distant neighbours.
  const std::size_t m = snapshot.size();
  std::vector<double> buf(m);
  double v_y = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    buf[i] = snapshot.neighbours[i].position.norm();
    v_y = std::max(v_y, buf[i]);
  }
  // §6.1: guard against distance over-estimation.
  v_y /= (1.0 + params_.distance_delta);
  if (v_y <= 0.0) return {0.0, 0.0};

  std::size_t distant = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (buf[i] > v_y / 2.0) buf[distant++] = snapshot.neighbours[i].position.angle();
  }
  if (distant == 0) return {0.0, 0.0};  // cannot happen with delta == 0
  buf.resize(distant);

  const geom::AngularGap gap = geom::half_plane_gap(buf);
  if (gap.gap <= geom::kPi + params_.halfplane_tolerance) {
    // Y lies in the convex hull of its distant neighbours: the intersection
    // of safe regions is exactly {Y} — stay put.
    return {0.0, 0.0};
  }

  const double r = safe_radius(v_y);
  // The two distant neighbours bounding the occupied sector are the ones on
  // either side of the largest gap.
  const Vec2 c1 = geom::unit(buf[gap.after]) * r;
  const Vec2 c2 = geom::unit(buf[gap.before]) * r;
  return geom::midpoint(c1, c2);
}

}  // namespace cohesion::algo
