#include "algo/baselines.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "geometry/circle.hpp"
#include "geometry/minbox.hpp"
#include "geometry/safe_region.hpp"
#include "geometry/smallest_enclosing_circle.hpp"

namespace cohesion::algo {

using core::Snapshot;
using geom::Circle;
using geom::Vec2;

namespace {

/// Positions of all perceived robots including the observer at the origin.
std::vector<Vec2> with_self(const Snapshot& snapshot) {
  std::vector<Vec2> pts;
  pts.reserve(snapshot.size() + 1);
  pts.emplace_back(0.0, 0.0);
  for (const auto& o : snapshot.neighbours()) pts.push_back(o.position);
  return pts;
}

/// Containment interval [t0, t1] (clamped to [0,1]) of the ray origin ->
/// dest within a closed disk; empty optional if the ray misses the disk.
std::optional<std::pair<double, double>> ray_disk_interval(Vec2 origin, Vec2 dest,
                                                           const Circle& c) {
  const Vec2 d = dest - origin;
  const double A = d.norm2();
  if (A == 0.0) {
    if (c.contains(origin)) return std::make_pair(0.0, 1.0);
    return std::nullopt;
  }
  const Vec2 f = origin - c.center;
  const double B = 2.0 * f.dot(d);
  const double C = f.norm2() - c.radius * c.radius;
  const double disc = B * B - 4.0 * A * C;
  if (disc < 0.0) return std::nullopt;
  const double sq = std::sqrt(disc);
  double t0 = (-B - sq) / (2.0 * A);
  double t1 = (-B + sq) / (2.0 * A);
  t0 = std::max(t0, 0.0);
  t1 = std::min(t1, 1.0);
  if (t0 > t1) return std::nullopt;
  return std::make_pair(t0, t1);
}

}  // namespace

Vec2 AndoAlgorithm::compute(const Snapshot& snapshot) const {
  if (snapshot.empty()) return {0.0, 0.0};
  const double v = v_ > 0.0 ? v_ : snapshot.furthest_distance();

  const Circle sec = geom::smallest_enclosing_circle(with_self(snapshot));
  const Vec2 goal = sec.center;

  // Move as far as possible toward the SEC centre while staying inside every
  // neighbour's safe disk: radius V/2 centred at the midpoint to the
  // neighbour (Fig. 3, grey).
  std::vector<Circle> disks;
  disks.reserve(snapshot.size());
  for (const auto& o : snapshot.neighbours()) {
    disks.push_back(geom::ando_safe_region({0.0, 0.0}, o.position, v));
  }
  const auto t = geom::clamp_ray_to_disks({0.0, 0.0}, goal, disks);
  if (!t) return {0.0, 0.0};
  return goal * *t;
}

Vec2 KatreniakAlgorithm::compute(const Snapshot& snapshot) const {
  if (snapshot.empty()) return {0.0, 0.0};
  const double v_z = snapshot.furthest_distance();
  const Circle sec = geom::smallest_enclosing_circle(with_self(snapshot));
  const Vec2 goal = sec.center;
  if (goal.norm() == 0.0) return {0.0, 0.0};

  // For each neighbour, the union of the two disks constrains the prefix of
  // the ray we may traverse: compute the largest t such that [0, t] is
  // covered by the union, then take the min over neighbours.
  double t_all = 1.0;
  for (const auto& o : snapshot.neighbours()) {
    const geom::KatreniakRegion region = geom::katreniak_safe_region({0.0, 0.0}, o.position, v_z);
    const auto self_iv = ray_disk_interval({0.0, 0.0}, goal, region.self_disk);
    const auto near_iv = ray_disk_interval({0.0, 0.0}, goal, region.near_disk);
    double covered = 0.0;  // [0, covered] is inside the union
    if (self_iv && self_iv->first <= 1e-12) covered = self_iv->second;
    if (near_iv && near_iv->first <= covered + 1e-12) {
      covered = std::max(covered, near_iv->second);
      // The self disk might extend the chain again (rare; one more pass).
      if (self_iv && self_iv->first <= covered + 1e-12) {
        covered = std::max(covered, self_iv->second);
      }
    }
    t_all = std::min(t_all, covered);
  }
  return goal * std::max(0.0, t_all);
}

Vec2 CogAlgorithm::compute(const Snapshot& snapshot) const {
  if (snapshot.empty()) return {0.0, 0.0};
  Vec2 sum{0.0, 0.0};
  for (const auto& o : snapshot.neighbours()) sum += o.position;
  return sum / static_cast<double>(snapshot.size() + 1);  // observer included at origin
}

Vec2 GcmAlgorithm::compute(const Snapshot& snapshot) const {
  if (snapshot.empty()) return {0.0, 0.0};
  return geom::minbox(with_self(snapshot)).center();
}

}  // namespace cohesion::algo
