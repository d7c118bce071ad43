#include "geometry/angles.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <ostream>
#include <stdexcept>

namespace cohesion::geom {

std::ostream& operator<<(std::ostream& os, Vec2 v) {
  return os << '(' << v.x << ", " << v.y << ')';
}

double normalize_angle(double theta) {
  double t = std::fmod(theta, kTwoPi);
  if (t < 0.0) t += kTwoPi;
  return t;
}

double normalize_angle_signed(double theta) {
  double t = normalize_angle(theta);
  if (t > kPi) t -= kTwoPi;
  return t;
}

double angle_distance(double a, double b) {
  return std::abs(normalize_angle_signed(a - b));
}

double ccw_sweep(double from, double to) { return normalize_angle(to - from); }

double interior_angle(Vec2 p, Vec2 q, Vec2 r) {
  const Vec2 u = p - q, v = r - q;
  const double nu = u.norm(), nv = v.norm();
  if (nu == 0.0 || nv == 0.0) return 0.0;
  const double c = std::clamp(u.dot(v) / (nu * nv), -1.0, 1.0);
  return std::acos(c);
}

double turn_angle(Vec2 p, Vec2 q, Vec2 r) {
  const Vec2 u = q - p, v = r - q;
  if (u.norm2() == 0.0 || v.norm2() == 0.0) return 0.0;
  return std::atan2(u.cross(v), u.dot(v));
}

AngularGap half_plane_gap(const std::vector<double>& directions) {
  if (directions.empty()) throw std::invalid_argument("half_plane_gap: empty input");
  // Eight monotone buckets of pi/4, each with the members the reference's
  // (angle, index) order puts first and last. Angles lie in [0, 2*pi], so
  // an empty bucket keeps lo > hi; a NaN is never a member.
  std::array<double, 8> lo{7, 7, 7, 7, 7, 7, 7, 7}, hi{-1, -1, -1, -1, -1, -1, -1, -1};
  std::array<std::size_t, 8> lo_at{}, hi_at{};
  for (std::size_t i = 0; i < directions.size(); ++i) {
    const double a = normalize_angle(directions[i]), scaled = a * (8.0 / kTwoPi);
    const auto b = static_cast<std::size_t>(scaled < 7.0 ? scaled : 7.0);
    if (a < lo[b]) lo[b] = a, lo_at[b] = i;
    if (a >= hi[b]) hi[b] = a, hi_at[b] = i;
  }
  // A gap inside a bucket is narrower than pi/4, so a gap wider than pi
  // runs from the largest member of one non-empty bucket to the smallest
  // of the next. Measure those, wrap-around last, as the reference does.
  std::array<std::size_t, 8> live{};
  std::size_t k = 0;
  for (std::size_t b = 0; b < 8; ++b) if (lo[b] <= hi[b]) live[k++] = b;
  AngularGap best{-1.0, 0, 0};
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t from = live[j], to = live[(j + 1) % k];
    const double gap = j + 1 < k ? lo[to] - hi[from] : (lo[to] - hi[from]) + kTwoPi;
    if (gap > best.gap) best = AngularGap{gap, hi_at[from], lo_at[to]};
  }
  return best;
}

}  // namespace cohesion::geom
