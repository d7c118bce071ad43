// Convex hulls of point sets.
//
// The paper's congregation argument (§5) measures progress through the
// perimeter and diameter of the convex hull of robot positions (CH_t is a
// nested, shrinking sequence). These routines feed the metrics module and
// the congregation benches (E6); DiameterTracker feeds the engine's stop
// check.
#pragma once

#include <cstddef>
#include <vector>

#include "geometry/vec2.hpp"

namespace cohesion::geom {

/// Convex hull via Andrew's monotone chain.
/// Returns vertices in counter-clockwise order, no duplicated endpoint,
/// collinear boundary points removed. Degenerate inputs (all points equal
/// or collinear) return the 1- or 2-point hull.
std::vector<Vec2> convex_hull(std::vector<Vec2> points);

/// Perimeter of the polygon given by `hull` (closed implicitly).
double polygon_perimeter(const std::vector<Vec2>& hull);

/// Signed area (ccw positive) of the polygon given by `hull`.
double polygon_area(const std::vector<Vec2>& hull);

/// Diameter (max pairwise distance) of a convex polygon via rotating calipers.
double hull_diameter(const std::vector<Vec2>& hull);

/// Max pairwise distance of an arbitrary point set (hull + calipers). The
/// one-shot path, and the reference DiameterTracker is held to.
double set_diameter(const std::vector<Vec2>& points);

/// set_diameter of a point set that changes a few points between calls:
/// Engine's stop check, where at most check_every robots moved since the
/// previous check. It keeps, per index, the point it last saw, and the
/// (point, index) array sorted by convex_hull's (x, then y) order. A call
/// finds the indices whose point changed bit for bit (so -0/+0 and NaN
/// count as changes), takes them out of the sorted array, sorts only them
/// and merges them back; then it runs convex_hull's chain and the
/// calipers. The first call and a call with another point count sort
/// everything into that array. A call where more than half the points
/// changed (a small swarm between checks) runs convex_hull's own sort +
/// unique instead, and the next call that changes anything rebuilds the
/// array. A call with nothing changed returns the previous diameter.
///
/// Why the value is set_diameter's, bit for bit (NaN-free input): two
/// points with equal (x, y) keys are equal values up to the sign of a zero,
/// so every order sorted by that key is the same sequence up to zero signs,
/// and so is the one std::unique leaves. The chain only compares cross
/// products with 0 and the calipers only compare them and take hypot, and
/// none of these sees the sign of a zero coordinate: the merged order
/// yields the diameter std::sort's order does.
/// tests/geometry/diameter_tracker_test.cpp fuzzes this against
/// set_diameter.
class DiameterTracker {
 public:
  /// set_diameter(points), re-sorting only what changed since the last call.
  double diameter(const std::vector<Vec2>& points);
  /// Points the last diameter() call sorted: a deterministic work count.
  [[nodiscard]] std::size_t points_sorted() const { return points_sorted_; }

 private:
  struct Entry {
    Vec2 p;
    std::size_t id;
  };
  std::vector<Vec2> last_;       ///< per index: the point of the last call
  std::vector<Entry> sorted_;    ///< last_ as (point, index), in (x, y) order
  std::vector<Entry> moved_;     ///< this call's changed entries
  std::vector<Entry> merged_;    ///< merge target, swapped with sorted_
  std::vector<char> changed_;    ///< per index: in moved_
  std::vector<Vec2> distinct_;   ///< sorted_'s points, equal runs collapsed
  std::vector<Vec2> hull_;
  double diameter_ = 0.0;
  std::size_t points_sorted_ = 0;
};

/// True iff `p` lies in the closed convex polygon `hull` (ccw order).
bool hull_contains(const std::vector<Vec2>& hull, Vec2 p, double eps = 1e-9);

}  // namespace cohesion::geom
