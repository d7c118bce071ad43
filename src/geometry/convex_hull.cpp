#include "geometry/convex_hull.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "geometry/segment.hpp"

namespace cohesion::geom {

namespace {

/// convex_hull's sort order: x, then y.
bool xy_less(Vec2 a, Vec2 b) {
  if (a.x != b.x) return a.x < b.x;
  return a.y < b.y;
}

/// Andrew's monotone chain over `pts`, sorted by xy_less with no two equal:
/// the hull in convex_hull's form, written into `hull` (storage reused).
void sorted_hull(const std::vector<Vec2>& pts, std::vector<Vec2>& hull) {
  const std::size_t n = pts.size();
  if (n <= 2) {
    hull.assign(pts.begin(), pts.end());
    return;
  }
  hull.resize(2 * n);
  std::size_t k = 0;
  // Lower hull.
  for (std::size_t i = 0; i < n; ++i) {
    while (k >= 2 && (hull[k - 1] - hull[k - 2]).cross(pts[i] - hull[k - 2]) <= 0) --k;
    hull[k++] = pts[i];
  }
  // Upper hull.
  const std::size_t lower = k + 1;
  for (std::size_t i = n - 1; i-- > 0;) {
    while (k >= lower && (hull[k - 1] - hull[k - 2]).cross(pts[i] - hull[k - 2]) <= 0) --k;
    hull[k++] = pts[i];
  }
  hull.resize(k - 1);
}

/// convex_hull's first step: sort by xy_less, drop repeats.
void sort_unique(std::vector<Vec2>& pts) {
  std::sort(pts.begin(), pts.end(), xy_less);
  pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
}

bool same_bits(Vec2 a, Vec2 b) {
  return std::bit_cast<std::uint64_t>(a.x) == std::bit_cast<std::uint64_t>(b.x) &&
         std::bit_cast<std::uint64_t>(a.y) == std::bit_cast<std::uint64_t>(b.y);
}

}  // namespace

std::vector<Vec2> convex_hull(std::vector<Vec2> pts) {
  sort_unique(pts);
  std::vector<Vec2> hull;
  sorted_hull(pts, hull);
  return hull;
}

double polygon_perimeter(const std::vector<Vec2>& hull) {
  const std::size_t n = hull.size();
  if (n < 2) return 0.0;
  double p = 0.0;
  for (std::size_t i = 0; i < n; ++i) p += hull[i].distance_to(hull[(i + 1) % n]);
  if (n == 2) p /= 2.0;  // a segment counted once
  return p;
}

double polygon_area(const std::vector<Vec2>& hull) {
  const std::size_t n = hull.size();
  if (n < 3) return 0.0;
  double a = 0.0;
  for (std::size_t i = 0; i < n; ++i) a += hull[i].cross(hull[(i + 1) % n]);
  return a / 2.0;
}

double hull_diameter(const std::vector<Vec2>& hull) {
  const std::size_t n = hull.size();
  if (n < 2) return 0.0;
  if (n == 2) return hull[0].distance_to(hull[1]);
  // Rotating calipers over antipodal pairs.
  double best = 0.0;
  std::size_t j = 1;
  for (std::size_t i = 0; i < n; ++i) {
    const Vec2 edge = hull[(i + 1) % n] - hull[i];
    while (true) {
      const std::size_t jn = (j + 1) % n;
      if (edge.cross(hull[jn] - hull[j]) > 0) {
        j = jn;
      } else {
        break;
      }
    }
    best = std::max({best, hull[i].distance_to(hull[j]), hull[(i + 1) % n].distance_to(hull[j])});
  }
  return best;
}

double set_diameter(const std::vector<Vec2>& points) {
  return hull_diameter(convex_hull(points));
}

double DiameterTracker::diameter(const std::vector<Vec2>& points) {
  const auto by_point = [](const Entry& a, const Entry& b) { return xy_less(a.p, b.p); };
  const std::size_t n = points.size();
  const bool same_count = n == last_.size();
  moved_.clear();
  if (same_count) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!same_bits(points[i], last_[i])) moved_.push_back({points[i], i});
    }
    if (moved_.empty()) {
      points_sorted_ = 0;
      return diameter_;
    }
  }
  last_ = points;
  points_sorted_ = n;
  if (same_count && 2 * moved_.size() > n) {
    // Most points moved (a small swarm between checks): convex_hull's own
    // sort + unique. The (point, index) array goes stale until a call with
    // few changes rebuilds it.
    sorted_.clear();
    distinct_ = points;
    sort_unique(distinct_);
  } else {
    if (same_count && sorted_.size() == n) {
      // Take the moved points out, sort them alone and merge them back.
      for (const Entry& e : moved_) changed_[e.id] = 1;
      std::erase_if(sorted_, [&](const Entry& e) { return changed_[e.id] != 0; });
      std::sort(moved_.begin(), moved_.end(), by_point);
      merged_.resize(n);
      std::merge(sorted_.begin(), sorted_.end(), moved_.begin(), moved_.end(),
                 merged_.begin(), by_point);
      sorted_.swap(merged_);
      for (const Entry& e : moved_) changed_[e.id] = 0;
      points_sorted_ = moved_.size();
    } else {  // the first call, another point count, or a stale array
      changed_.assign(n, 0);
      sorted_.resize(n);
      for (std::size_t i = 0; i < n; ++i) sorted_[i] = {points[i], i};
      std::sort(sorted_.begin(), sorted_.end(), by_point);
    }
    // convex_hull's std::unique: keep the first of each run of equal points.
    distinct_.clear();
    for (const Entry& e : sorted_) {
      if (distinct_.empty() || !(distinct_.back() == e.p)) distinct_.push_back(e.p);
    }
  }
  sorted_hull(distinct_, hull_);
  diameter_ = hull_diameter(hull_);
  return diameter_;
}

bool hull_contains(const std::vector<Vec2>& hull, Vec2 p, double eps) {
  const std::size_t n = hull.size();
  if (n == 0) return false;
  if (n == 1) return hull[0].distance_to(p) <= eps;
  if (n == 2) {
    const Segment s{hull[0], hull[1]};
    return s.distance_to(p) <= eps;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Vec2 a = hull[i], b = hull[(i + 1) % n];
    if ((b - a).cross(p - a) < -eps * (b - a).norm()) return false;
  }
  return true;
}

}  // namespace cohesion::geom
