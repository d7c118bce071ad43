// Angle arithmetic on the circle.
//
// Needed throughout: the KKNPS destination rule reasons about the angular
// gaps between directions to distant neighbours (paper §5, Fig. 15), and the
// impossibility construction (§7) manipulates turn angles of spiral chords.
#pragma once

#include <numbers>
#include <vector>

#include "geometry/vec2.hpp"

namespace cohesion::geom {

inline constexpr double kPi = std::numbers::pi;
inline constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// Normalize an angle into [0, 2*pi).
double normalize_angle(double theta);

/// Normalize an angle into (-pi, pi].
double normalize_angle_signed(double theta);

/// Smallest absolute difference between two angles, in [0, pi].
double angle_distance(double a, double b);

/// Signed counter-clockwise sweep from `a` to `b`, in [0, 2*pi).
double ccw_sweep(double from, double to);

/// Interior angle at vertex Q of the polyline P-Q-R, in [0, pi].
double interior_angle(Vec2 p, Vec2 q, Vec2 r);

/// Turn angle at Q walking P -> Q -> R: pi minus the interior angle, signed
/// (+ for a counter-clockwise turn). In (-pi, pi].
double turn_angle(Vec2 p, Vec2 q, Vec2 r);

/// Result of the largest-gap analysis over a set of directions.
struct AngularGap {
  double gap = 0.0;        ///< size of the largest empty arc, in [0, 2*pi]
  std::size_t before = 0;  ///< index (into the input) of the direction preceding the gap (ccw)
  std::size_t after = 0;   ///< index of the direction following the gap (ccw)
};

/// The largest angular gap between consecutive directions (ccw), exact
/// whenever it exceeds pi — the only case the KKNPS stay-put rule
/// (gap <= pi + tol, tol >= 0) reads.
///
/// One pass drops the normalized directions into eight monotone buckets
/// of pi/4, with no sort. A gap wider than pi cannot lie inside a bucket,
/// so only the gaps between neighbouring non-empty buckets are measured,
/// each as the sorted reference (tests/oracles/angular_gap_oracle.hpp)
/// measures it, with its index tie-breaks. So the result is the
/// reference's (gap, before, after) bit for bit when that gap exceeds pi
/// (at most one gap can), and otherwise some gap no wider than pi.
/// `directions` must be non-empty; a single direction gives gap 2*pi with
/// before == after == 0. Non-finite directions give an unspecified result.
AngularGap half_plane_gap(const std::vector<double>& directions);

}  // namespace cohesion::geom
