#include "metrics/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/spatial_index.hpp"
#include "core/visibility.hpp"
#include "metrics/online.hpp"
#include "geometry/convex_hull.hpp"
#include "geometry/smallest_enclosing_circle.hpp"

namespace cohesion::metrics {

using geom::Vec2;

double min_pairwise_distance(const std::vector<Vec2>& positions) {
  const std::size_t n = positions.size();
  if (n < 2) return 0.0;

  // Start from the radius a uniform configuration would need (bounding-box
  // diagonal over sqrt(n)); degenerate all-coincident inputs get any
  // positive radius.
  double min_x = positions[0].x, max_x = min_x, min_y = positions[0].y, max_y = min_y;
  for (const Vec2& p : positions) {
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  const double diagonal = std::hypot(max_x - min_x, max_y - min_y);
  double radius = diagonal > 0.0 ? diagonal / std::sqrt(static_cast<double>(n)) : 1.0;

  core::IncrementalGrid grid;
  std::vector<bool> resolved(n, false);
  double best = std::numeric_limits<double>::infinity();
  std::size_t remaining = n;
  while (remaining > 0) {
    // The cell side tracks the query radius, so a query touches <= 3x3
    // cells every round; each reset is O(n).
    grid.reset(radius, positions);
    for (std::size_t i = 0; i < n; ++i) {
      if (resolved[i]) continue;
      const core::VisibilityBall ball(positions[i], radius, /*open_ball=*/false);
      double nearest = std::numeric_limits<double>::infinity();
      grid.candidates_near(positions[i], radius, [&](std::size_t j) {
        if (j != i && ball.contains(positions[j])) {
          nearest = std::min(nearest, positions[i].distance_to(positions[j]));
        }
      });
      // A found neighbour at distance d <= radius bounds the true nearest
      // neighbour by d, and every point closer than d is inside the query
      // ball too — so `nearest` is exact once any neighbour is found.
      if (nearest < std::numeric_limits<double>::infinity()) {
        resolved[i] = true;
        --remaining;
        best = std::min(best, nearest);
      }
    }
    // Unresolved points have no neighbour within `radius`; they cannot beat
    // a best already at or below it.
    if (best <= radius) break;
    radius *= 2.0;
  }
  return best;
}

ConfigurationStats configuration_stats(const std::vector<Vec2>& positions, double v) {
  ConfigurationStats s;
  const auto hull = geom::convex_hull(positions);
  s.diameter = geom::hull_diameter(hull);
  s.hull_perimeter = geom::polygon_perimeter(hull);
  s.sec_radius = geom::smallest_enclosing_circle(positions).radius;
  s.min_pairwise = min_pairwise_distance(positions);
  s.connected = core::VisibilityGraph(positions, v).connected();
  return s;
}

std::vector<ConfigurationStats> stats_over_time(const core::Trace& trace,
                                                const std::vector<core::Time>& times, double v) {
  std::vector<ConfigurationStats> out;
  out.reserve(times.size());
  for (const core::Time t : times) out.push_back(configuration_stats(trace.configuration(t), v));
  return out;
}

ConvergenceReport analyze(const core::Trace& trace, double v, double epsilon) {
  ConvergenceAccumulator acc(trace.initial_configuration(), v, epsilon);
  for (const core::ActivationRecord& rec : trace.records()) acc.add(rec);
  return acc.finish();
}

}  // namespace cohesion::metrics
