// Visibility graphs over configurations (paper §2.1) and the edge/
// connectivity predicates used by Cohesive Convergence.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "geometry/vec2.hpp"

namespace cohesion::core {

/// Undirected visibility graph: edge (i, j) iff |P_i P_j| <= V.
class VisibilityGraph {
 public:
  VisibilityGraph(const std::vector<geom::Vec2>& positions, double v, bool open_ball = false);

  [[nodiscard]] bool has_edge(RobotId a, RobotId b) const;
  [[nodiscard]] const std::vector<std::pair<RobotId, RobotId>>& edges() const { return edges_; }
  [[nodiscard]] std::size_t robot_count() const { return n_; }
  [[nodiscard]] bool connected() const;

  /// True iff every edge of *this also exists in `later` — the invariant
  /// E(0) subseteq E(t) of Cohesive Convergence.
  [[nodiscard]] bool subset_of(const VisibilityGraph& later) const;

  /// Number of edges of *this missing from `later`.
  [[nodiscard]] std::size_t edges_lost(const VisibilityGraph& later) const;

 private:
  std::size_t n_;
  std::vector<std::pair<RobotId, RobotId>> edges_;  // a < b, sorted
};

/// Max over initially-visible pairs of their distance at `positions`,
/// normalized by V: > 1 means some initial visibility was lost. A thin
/// wrapper that builds an InitialPairSweep and sweeps once; callers that
/// sample many configurations of one run should keep the sweep instead.
/// Throws std::invalid_argument unless positions.size() == initial.size().
double worst_initial_pair_stretch(const std::vector<geom::Vec2>& initial,
                                  const std::vector<geom::Vec2>& positions, double v);

/// The cohesion-stretch metric of one run, indexed once over the run's
/// fixed initial configuration and evaluated at many sampled ones.
///
/// Construction buckets the initial positions into grid cells slightly
/// wider than V + 1e-12 and stores them in cell order with each cell's
/// slot range and its four "forward" neighbour cells — O(n) memory, no
/// stored pair list. A sweep enumerates every unordered pair of the same
/// or adjacent cells once (a superset of the initially-visible pairs) and
/// decides each pair with the certified squared-distance bands of the
/// engine's visibility ball (core::certified_ball_bounds, contract 12):
///   1. initially visible? d2 against (V + 1e-12)^2; only the narrow band
///      (and degenerate bounds) runs the exact
///      `initial[a].distance_to(initial[b]) <= V + 1e-12`;
///   2. can the pair beat the running maximum hmax of the sampled
///      distances? Only pairs whose squared distance is not certified
///      <= hmax pay the std::hypot.
/// The result is hmax / V — exact, because rounded division by V > 0 is
/// monotone — so it equals the pairwise reference bit for bit, for any
/// enumeration order and any FP contraction.
class InitialPairSweep {
 public:
  InitialPairSweep(const std::vector<geom::Vec2>& initial, double v);

  /// worst_initial_pair_stretch(initial, positions, v). Throws
  /// std::invalid_argument unless positions.size() == initial.size().
  [[nodiscard]] double worst_stretch(const std::vector<geom::Vec2>& positions);

 private:
  struct Cell {
    std::uint32_t begin = 0;  ///< first slot of the cell
    std::uint32_t end = 0;    ///< one past its last slot
    std::int32_t forward[4] = {-1, -1, -1, -1};  ///< neighbour cells, -1 if empty
  };

  std::size_t n_ = 0;
  double v_ = 0.0;
  double r_ = 0.0;  ///< closed initial-visibility radius V + 1e-12
  double in2_ = -1.0;
  double out2_ = 0.0;
  std::vector<std::uint32_t> order_;  ///< robot id per slot, cell by cell
  std::vector<double> ix_, iy_;       ///< initial position per slot
  std::vector<Cell> cells_;
  std::vector<double> px_, py_;  ///< sampled position per slot (sweep scratch)
};

}  // namespace cohesion::core
