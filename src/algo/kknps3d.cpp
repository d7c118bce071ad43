#include "algo/kknps3d.hpp"

#include <algorithm>
#include <limits>
#include <random>

namespace cohesion::algo {

using geom::Vec3;

Vec3 min_norm_point_in_hull(const std::vector<Vec3>& points, int iterations) {
  if (points.empty()) return {0.0, 0.0, 0.0};
  // Frank-Wolfe: x_{t+1} = (1 - gamma) x_t + gamma s_t, where s_t is the
  // hull vertex minimizing the linearization <x_t, s>.
  Vec3 x = points[0];
  for (int t = 0; t < iterations; ++t) {
    const Vec3* best = &points[0];
    double best_dot = std::numeric_limits<double>::infinity();
    for (const Vec3& p : points) {
      const double d = x.dot(p);
      if (d < best_dot) {
        best_dot = d;
        best = &p;
      }
    }
    // Exact line search on |x + gamma (s - x)|^2.
    const Vec3 dir = *best - x;
    const double denom = dir.norm2();
    if (denom < 1e-18) break;
    const double gamma = std::clamp(-x.dot(dir) / denom, 0.0, 1.0);
    if (gamma <= 0.0) break;  // optimality: no descent direction
    x += dir * gamma;
  }
  return x;
}

Vec3 kknps3d_destination(const std::vector<Vec3>& neighbours, const Kknps3dParams& params) {
  if (neighbours.empty()) return {0.0, 0.0, 0.0};
  double v_y = 0.0;
  for (const Vec3& p : neighbours) v_y = std::max(v_y, p.norm());
  if (v_y <= 0.0) return {0.0, 0.0, 0.0};

  std::vector<Vec3> dirs;
  dirs.reserve(neighbours.size());
  for (const Vec3& p : neighbours) {
    if (p.norm() > v_y / 2.0) dirs.push_back(p.normalized());
  }
  if (dirs.empty()) return {0.0, 0.0, 0.0};

  const Vec3 w = min_norm_point_in_hull(dirs);
  if (w.norm() <= params.hull_tolerance) {
    return {0.0, 0.0, 0.0};  // surrounded: safe balls meet only at the origin
  }
  const Vec3 w_hat = w.normalized();
  const double r = v_y / (8.0 * static_cast<double>(params.k));
  double t = std::numeric_limits<double>::infinity();
  for (const Vec3& u : dirs) t = std::min(t, 2.0 * r * w_hat.dot(u));
  if (t <= 0.0) return {0.0, 0.0, 0.0};
  return w_hat * (t / 2.0);  // chord midpoint: interior to every safe ball
}

Sim3dResult simulate_kknps3d(std::vector<Vec3> positions, double v, std::size_t k,
                             std::size_t rounds, bool ssync, std::uint64_t seed) {
  Sim3dResult result;
  const std::vector<Vec3> initial = positions;
  const std::size_t n = positions.size();
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  const Kknps3dParams params{.k = k};

  auto audit = [&](const std::vector<Vec3>& cfg) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (initial[i].distance_to(initial[j]) <= v + 1e-12) {
          result.worst_initial_stretch =
              std::max(result.worst_initial_stretch, cfg[i].distance_to(cfg[j]) / v);
        }
      }
    }
  };

  for (std::size_t round = 0; round < rounds; ++round) {
    std::vector<Vec3> next = positions;
    for (std::size_t i = 0; i < n; ++i) {
      if (ssync && coin(rng) < 0.5) continue;  // idle this round
      std::vector<Vec3> neighbours;
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        if (positions[i].distance_to(positions[j]) <= v + 1e-12) {
          neighbours.push_back(positions[j] - positions[i]);
        }
      }
      next[i] = positions[i] + kknps3d_destination(neighbours, params);
    }
    positions = std::move(next);
    audit(positions);
  }

  result.final_positions = positions;
  double diam = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      diam = std::max(diam, positions[i].distance_to(positions[j]));
    }
  }
  result.final_diameter = diam;
  return result;
}

geom::Vec2 Kknps3dPlanarAlgorithm::compute(const core::Snapshot& snapshot) const {
  std::vector<Vec3> neighbours;
  neighbours.reserve(snapshot.neighbours().size());
  for (const core::ObservedRobot& o : snapshot.neighbours()) {
    neighbours.push_back({o.position.x, o.position.y, 0.0});
  }
  const Vec3 d = kknps3d_destination(neighbours, params_);
  return {d.x, d.y};
}

}  // namespace cohesion::algo
