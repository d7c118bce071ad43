#include "core/visibility.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <tuple>

#include "core/spatial_index.hpp"

namespace cohesion::core {

namespace {

// Below this size the O(n^2) pairwise scan beats building a hash grid. Both
// paths apply the identical predicate to an identical candidate order, so
// the produced edge lists are the same either way.
constexpr std::size_t kGridThreshold = 64;

/// Per-axis clamp of InitialPairSweep's cell coordinates (see its ctor).
constexpr double kMaxCell = 0x1p28;

}  // namespace

VisibilityGraph::VisibilityGraph(const std::vector<geom::Vec2>& positions, double v,
                                 bool open_ball)
    : n_(positions.size()) {
  if (n_ < kGridThreshold || !(v > 0.0)) {
    for (RobotId a = 0; a < n_; ++a) {
      for (RobotId b = a + 1; b < n_; ++b) {
        const double d = positions[a].distance_to(positions[b]);
        const bool vis = open_ball ? (d < v) : (d <= v + kVisibilityEpsilon);
        if (vis) edges_.emplace_back(a, b);
      }
    }
    return;
  }
  // Grid-bucketed construction: O(n + E) expected. neighbors_within returns
  // ascending ids, so edges come out sorted (a asc, then b asc) exactly like
  // the pairwise loop above.
  SpatialGrid grid(v);
  grid.rebuild(positions);
  std::vector<std::size_t> nbrs;
  for (RobotId a = 0; a < n_; ++a) {
    grid.neighbors_within(positions[a], v, open_ball, nbrs);
    for (const std::size_t b : nbrs) {
      if (b > a) edges_.emplace_back(a, b);
    }
  }
}

bool VisibilityGraph::has_edge(RobotId a, RobotId b) const {
  if (a > b) std::swap(a, b);
  return std::binary_search(edges_.begin(), edges_.end(), std::make_pair(a, b));
}

bool VisibilityGraph::connected() const {
  if (n_ == 0) return true;
  std::vector<std::vector<RobotId>> adj(n_);
  for (const auto& [a, b] : edges_) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  std::vector<bool> seen(n_, false);
  std::vector<RobotId> stack{0};
  seen[0] = true;
  std::size_t count = 1;
  while (!stack.empty()) {
    const RobotId cur = stack.back();
    stack.pop_back();
    for (const RobotId nxt : adj[cur]) {
      if (!seen[nxt]) {
        seen[nxt] = true;
        ++count;
        stack.push_back(nxt);
      }
    }
  }
  return count == n_;
}

bool VisibilityGraph::subset_of(const VisibilityGraph& later) const {
  return edges_lost(later) == 0;
}

std::size_t VisibilityGraph::edges_lost(const VisibilityGraph& later) const {
  std::size_t lost = 0;
  for (const auto& [a, b] : edges_) {
    if (!later.has_edge(a, b)) ++lost;
  }
  return lost;
}

double worst_initial_pair_stretch(const std::vector<geom::Vec2>& initial,
                                  const std::vector<geom::Vec2>& positions, double v) {
  return InitialPairSweep(initial, v).worst_stretch(positions);
}

InitialPairSweep::InitialPairSweep(const std::vector<geom::Vec2>& initial, double v)
    : n_(initial.size()), v_(v), r_(v + kVisibilityEpsilon) {
  // Outside [+0, inf) every pair's stretch d / V is <= 0 or NaN (negative
  // or -0 V, infinite V) or no pair is visible at all (NaN V), so the
  // reference's max stays at its initial 0: index nothing.
  if (!(v >= 0.0) || std::signbit(v) || std::isinf(v)) return;
  const CertifiedBallBounds cb = certified_ball_bounds(r_);
  in2_ = cb.definite_in2;
  out2_ = cb.definite_out2;

  // A visible pair has |dx|, |dy| <= r_ up to a few ulps of hypot; cells
  // 2^-20 wider keep such pairs in the same or adjacent cells despite the
  // rounding of x * inv_cell (< 2^-25 cells below kMaxCell). A radius too
  // large to invert safely puts every robot in one cell.
  const double cell = r_ * (1.0 + 0x1p-20);
  const double inv_cell = cell < 1e300 ? 1.0 / cell : 0.0;
  const auto cell_of = [&](double coord) {
    const double c = std::floor(coord * inv_cell);
    return static_cast<std::int32_t>(std::clamp(c, -kMaxCell, kMaxCell));
  };

  // A robot with a non-finite initial coordinate is at NaN or infinite
  // distance from every other, so never initially visible: leave it out.
  struct Keyed {
    std::int32_t cx, cy;
    std::uint32_t robot;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(n_);
  for (std::size_t r = 0; r < n_; ++r) {
    const geom::Vec2 p = initial[r];
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) continue;
    keyed.push_back({cell_of(p.x), cell_of(p.y), static_cast<std::uint32_t>(r)});
  }
  std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    return std::tie(a.cx, a.cy, a.robot) < std::tie(b.cx, b.cy, b.robot);
  });

  const std::size_t m = keyed.size();
  order_.resize(m);
  ix_.resize(m);
  iy_.resize(m);
  px_.resize(m);
  py_.resize(m);
  std::vector<std::pair<std::int32_t, std::int32_t>> keys;  // per cell
  for (std::size_t k = 0; k < m; ++k) {
    order_[k] = keyed[k].robot;
    ix_[k] = initial[keyed[k].robot].x;
    iy_[k] = initial[keyed[k].robot].y;
    const std::pair<std::int32_t, std::int32_t> key{keyed[k].cx, keyed[k].cy};
    if (keys.empty() || keys.back() != key) {
      keys.push_back(key);
      cells_.push_back({static_cast<std::uint32_t>(k), 0, {-1, -1, -1, -1}});
    }
    cells_.back().end = static_cast<std::uint32_t>(k + 1);
  }
  // Half stencil: with the cell itself, these four cover each adjacent
  // cell pair exactly once.
  constexpr std::int32_t kForward[4][2] = {{0, 1}, {1, -1}, {1, 0}, {1, 1}};
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    for (int f = 0; f < 4; ++f) {
      const std::pair<std::int32_t, std::int32_t> want{keys[c].first + kForward[f][0],
                                                       keys[c].second + kForward[f][1]};
      const auto it = std::lower_bound(keys.begin(), keys.end(), want);
      if (it != keys.end() && *it == want) {
        cells_[c].forward[f] = static_cast<std::int32_t>(it - keys.begin());
      }
    }
  }
}

double InitialPairSweep::worst_stretch(const std::vector<geom::Vec2>& positions) {
  if (positions.size() != n_) {
    throw std::invalid_argument("worst_initial_pair_stretch: " +
                                std::to_string(positions.size()) + " positions for " +
                                std::to_string(n_) + " robots");
  }
  const std::size_t m = order_.size();
  for (std::size_t k = 0; k < m; ++k) {
    px_[k] = positions[order_[k]].x;
    py_[k] = positions[order_[k]].y;
  }
  const double* ix = ix_.data();
  const double* iy = iy_.data();
  const double* px = px_.data();
  const double* py = py_.data();
  const double r = r_;
  const double in2 = in2_;
  const double out2 = out2_;
  double hmax = 0.0;    // running max of the sampled distances
  double skip2 = -1.0;  // q2 <= skip2 certifies hypot(q) <= hmax
  // Slot i against slots [jb, je): both certified tests first, the exact
  // hypot-based predicates only where the squared distance cannot decide.
  const auto sweep = [&](std::size_t i, std::size_t jb, std::size_t je) {
    const double ax = ix[i], ay = iy[i], bx = px[i], by = py[i];
    for (std::size_t j = jb; j < je; ++j) {
      const double dx = ax - ix[j];
      const double dy = ay - iy[j];
      const double d2 = dx * dx + dy * dy;
      if (d2 > out2) continue;  // certified not initially visible
      const double qx = bx - px[j];
      const double qy = by - py[j];
      const double q2 = qx * qx + qy * qy;
      if (q2 <= skip2) continue;  // certified not above the maximum
      if (!(d2 <= in2) && !(std::hypot(dx, dy) <= r)) continue;
      if (qx == 0.0 && qy == 0.0) continue;  // hypot(+-0, +-0) = +0 <= hmax
      const double h = std::hypot(qx, qy);
      if (!(h > hmax)) continue;  // also drops NaN, as std::max(worst, NaN) does
      hmax = h;
      skip2 = certified_ball_bounds(h).definite_in2;
    }
  };
  for (const Cell& c : cells_) {
    for (std::size_t i = c.begin; i < c.end; ++i) {
      sweep(i, i + 1, c.end);
      for (const std::int32_t f : c.forward) {
        if (f >= 0) sweep(i, cells_[f].begin, cells_[f].end);
      }
    }
  }
  // max over pairs of fl(h / V) == fl(max h / V) for V > 0; for V = +0 a
  // pair that moved apart gives +inf and a coincident one NaN (dropped).
  return hmax == 0.0 ? 0.0 : hmax / v_;
}

}  // namespace cohesion::core
