// Uniform-grid spatial hash for exact fixed-radius neighbor queries.
//
// Points are bucketed by the integer cell (floor(x / cell), floor(y / cell))
// of a grid whose side is typically the visibility radius V. A query
// enumerates only the cells overlapping the bounding square of the query
// ball — at most 3x3 cells when the query radius is <= the cell side — and
// applies the *exact* visibility predicate (closed ball d <= r + 1e-12, or
// open ball d < r, with d from Vec2::distance_to) to each candidate. The
// grid therefore changes which pairs are examined, never the predicate, so
// results are bit-identical to a brute-force scan over all points. Returned
// ids are ascending by construction (IdBitmap, below: marked in a
// point-sized bitmap, emitted in bit order, no sort), so callers that
// consume neighbors in id order behave identically to the O(n) scan they
// replace.
//
// The bucket table is open-addressed with stamp-based invalidation, so a
// rebuild is O(n) with no per-rebuild allocation in steady state. Metrics
// and visibility graphs query one configuration at a time this way.
//
// The engine's Looks each happen at their own time, which would cost a
// rebuild per activation. IncrementalGrid (below) is the persistently
// maintained variant for that regime: robots are bucketed by the cells of
// their *current trajectory segment* — which covers the robot's exact
// position at every time the segment is current — so buckets change only
// on commit (O(1) amortized), never per Look time.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "core/types.hpp"
#include "geometry/vec2.hpp"

namespace cohesion::core {

/// Closed-ball slack shared by every visibility predicate in the simulator
/// (engine snapshots, visibility graphs, initial-pair stretch).
inline constexpr double kVisibilityEpsilon = 1e-12;

// Certified bounds: for a ball of radius b (open: d < b; closed: d <= b),
//   definite_in2  = (b * (1 - kSoaCertSlack))^2   — d2 <= it  => inside
//   definite_out2 = (b * (1 + kSoaCertSlack))^2   — d2 >  it  => outside
// with kSoaCertSlack = 1e-9, nine orders of magnitude wider than the
// ~1e-16 relative error of d2 = dx*dx + dy*dy (with or without FMA) and of
// hypot, so a misclassification would need an error 10^7 times larger than
// double rounding allows. Degenerate radii (b <= 0, non-finite, or so
// small/large that the slack rounds away or the square leaves the normal
// range — underflow near sqrt(DBL_MIN) flushes squared distances toward 0
// and would fake certificates) disable the corresponding bound, degrading
// those points to the exact check — slow but still exact.

/// Relative half-width of the borderline band around the visibility radius
/// inside which the squared-distance test defers to the exact predicate.
inline constexpr double kSoaCertSlack = 1e-9;

/// Squared-distance bounds certifying the exact ball predicate of radius b.
/// d2 <= definite_in2 certifies the predicate true; d2 > definite_out2
/// certifies it false; between them only the exact predicate decides.
struct CertifiedBallBounds {
  double definite_in2;
  double definite_out2;
};

/// Bounds for the ball of radius `b` (open `d < b` or closed `d <= b` —
/// both are certified by the same pair). Degenerate b (<= 0, non-finite,
/// or where the slack is absorbed by rounding) disables the affected bound
/// so every point falls back to the exact predicate.
[[nodiscard]] CertifiedBallBounds certified_ball_bounds(double b);

/// The visibility predicate around one observer: closed d <= r + 1e-12 or
/// open d < r, with d from Vec2::distance_to. contains() decides on the
/// squared distance wherever the certified bounds can and pays the exact
/// hypot only in the band, so it always returns the exact predicate.
class VisibilityBall {
 public:
  VisibilityBall(geom::Vec2 center, double radius, bool open_ball)
      : center_(center),
        radius_(radius),
        open_ball_(open_ball),
        bounds_(certified_ball_bounds(open_ball ? radius : radius + kVisibilityEpsilon)) {}

  /// `d2` is p's squared distance from the centre as dx*dx + dy*dy of
  /// p - centre (any rounding or contraction of it).
  [[nodiscard]] bool contains(geom::Vec2 p, double d2) const {
    if (d2 > bounds_.definite_out2) return false;  // certified invisible
    if (d2 <= bounds_.definite_in2) return true;   // certified visible
    // Borderline band (or degenerate bounds, or NaN): the exact predicate.
    const double d = center_.distance_to(p);
    return open_ball_ ? (d < radius_) : (d <= radius_ + kVisibilityEpsilon);
  }
  [[nodiscard]] bool contains(geom::Vec2 p) const {
    const geom::Vec2 d = p - center_;
    return contains(p, d.x * d.x + d.y * d.y);
  }

 private:
  geom::Vec2 center_;
  double radius_;
  bool open_ball_;
  CertifiedBallBounds bounds_;
};

/// Query scratch of both grids: ids marked in any order, repeats allowed,
/// come out ascending and unique without a sort. One bit per id, plus a
/// summary bit per 64-id word that is non-zero, so emitting costs
/// O(n / 4096 + marked words + ids) and leaves every bit clear again.
class IdBitmap {
 public:
  /// Room for ids below `n`, all unmarked.
  void reset(std::size_t n);
  void mark(std::size_t id) {
    words_[id >> 6] |= std::uint64_t{1} << (id & 63);
    summary_[id >> 12] |= std::uint64_t{1} << ((id >> 6) & 63);
  }
  /// Append the marked ids to `out`, ascending, and unmark them.
  void take_ascending(std::vector<std::size_t>& out);

 private:
  std::vector<std::uint64_t> words_;    // bit id % 64 of word id / 64
  std::vector<std::uint64_t> summary_;  // bit w % 64 of word w / 64: words_[w] != 0
};

class SpatialGrid {
 public:
  SpatialGrid() = default;
  explicit SpatialGrid(double cell_size) { set_cell_size(cell_size); }

  /// Side length of a grid cell; non-positive/non-finite values fall back to
  /// 1.0. Invalidates the current index.
  void set_cell_size(double cell_size);
  [[nodiscard]] double cell_size() const { return cell_; }

  /// Index `points`. The vector is borrowed: it must stay alive and
  /// unmodified until the next rebuild. O(n) expected.
  void rebuild(const std::vector<geom::Vec2>& points);

  /// Ids (ascending) of indexed points within the closed (d <= r + 1e-12)
  /// or open (d < r) ball around `q`. Includes the query point itself when
  /// it is indexed; callers filter self-matches by id. `out` is overwritten.
  void neighbors_within(geom::Vec2 q, double r, bool open_ball, std::vector<std::size_t>& out);

  [[nodiscard]] std::size_t size() const { return next_.size(); }

 private:
  [[nodiscard]] std::int64_t cell_of(double coord) const;
  [[nodiscard]] static std::uint64_t cell_key(std::int64_t cx, std::int64_t cy);
  [[nodiscard]] static std::size_t hash_key(std::uint64_t key);
  /// Index of the slot holding `key` this generation, or of the free slot
  /// where it would be inserted.
  [[nodiscard]] std::size_t find_slot(std::uint64_t key) const;
  void ensure_capacity(std::size_t point_count);

  double cell_ = 1.0;
  double inv_cell_ = 1.0;
  const std::vector<geom::Vec2>* points_ = nullptr;

  // Open-addressed cell table: slot i holds (key, head of an intrusive chain
  // through next_). A slot is live only when its stamp matches stamp_, which
  // lets rebuild() discard the previous generation without clearing.
  std::vector<std::uint64_t> slot_key_;
  std::vector<std::int32_t> slot_head_;
  std::vector<std::uint64_t> slot_stamp_;
  std::vector<std::int32_t> next_;
  std::uint64_t stamp_ = 0;
  std::size_t mask_ = 0;
  IdBitmap marks_;
};

/// Incrementally-maintained robot→cell index for the async engine hot path.
///
/// Where SpatialGrid buckets *positions at one instant* and must be rebuilt
/// whenever the instant changes, IncrementalGrid buckets each robot by the
/// grid cells overlapped by the bounding box of its current trajectory
/// segment (from → realized). A robot's position at *every* time its
/// segment is current — `from` before the move, the lerp during it,
/// `realized` after — lies inside that box, so the bucket set only has to
/// change when the segment itself changes: once per commit, O(segment
/// cells) ≈ O(1), instead of O(n) per distinct Look time.
///
/// The price is that a query returns *candidates*, not neighbors: a cell
/// can hold robots currently elsewhere along their segment. Callers
/// evaluate each candidate's exact position (O(1) through KinematicState)
/// and apply the exact visibility predicate, so results remain bit-identical
/// to a brute-force scan — the index only ever enlarges the examined set,
/// exactly like SpatialGrid's clamping/aliasing superset guarantees.
///
/// `advance_to(t)` tightens the index as time moves forward: robots whose
/// move ended at or before `t` sit exactly at `realized` forever after, so
/// their multi-cell segment box collapses to the single end cell (a pending
/// min-heap of move-end times makes this O(log in-flight) amortized).
/// Collapsing assumes queries never go back before the collapse time;
/// the engine guards the scheduler's 1e-12 look-ordering slack by serving
/// backward queries through a scan over history instead.
class IncrementalGrid {
 public:
  /// Rebuild from scratch: robot r bucketed at the (degenerate) segment
  /// `initial[r] → initial[r]`. Non-positive/non-finite cell sizes fall
  /// back to 1.0, mirroring SpatialGrid::set_cell_size.
  void reset(double cell_size, const std::vector<geom::Vec2>& initial);

  /// Replace `robot`'s buckets with the cells of the bounding box of the
  /// segment `from → to`; from `settle_time` onward the robot sits exactly
  /// at `to` and advance_to may collapse it to the single end cell.
  /// Segments spanning implausibly many cells (a teleport much longer than
  /// the visibility radius) are kept on an always-scanned outlier list
  /// instead of flooding the table.
  void update(RobotId robot, geom::Vec2 from, geom::Vec2 to, Time settle_time);

  /// Collapse every robot whose `settle_time` is <= `t` to its end cell.
  /// Queries served after this call must be at times >= `t`.
  void advance_to(Time t);

  /// Ids (ascending, unique) of every robot whose bucket cells overlap the
  /// bounding square of the ball around `q` — a superset of the robots
  /// whose exact current position lies within distance r of `q`. The caller
  /// applies the exact visibility predicate. `out` is overwritten.
  void candidates_near(geom::Vec2 q, double r, std::vector<std::size_t>& out);

  [[nodiscard]] std::size_t robot_count() const { return robot_nodes_.size(); }
  [[nodiscard]] double cell_size() const { return cell_; }

 private:
  /// One (robot, cell) membership: a node of the cell's doubly-linked list.
  struct Node {
    std::uint64_t key = 0;
    std::int32_t robot = -1;
    std::int32_t prev = -1;  ///< -1: this node is the chain head
    std::int32_t next = -1;
  };

  [[nodiscard]] std::int64_t cell_of(double coord) const;
  [[nodiscard]] std::size_t find_slot(std::uint64_t key) const;  ///< live slot or npos
  std::size_t find_or_insert_slot(std::uint64_t key);
  void erase_slot(std::size_t slot);  ///< backward-shift deletion
  void grow_table(std::size_t min_slots);
  void link(RobotId robot, std::uint64_t key);
  void unlink(std::int32_t node);
  void clear_robot(RobotId robot);
  void set_outlier(RobotId robot, bool on);
  void collapse(RobotId robot);

  double cell_ = 1.0;
  double inv_cell_ = 1.0;

  // Open-addressed cell table (linear probing, backward-shift deletion):
  // live slots map a cell key to the head node of that cell's member list.
  std::vector<std::uint64_t> table_key_;
  std::vector<std::int32_t> table_head_;
  std::vector<bool> table_used_;
  std::size_t mask_ = 0;
  std::size_t live_cells_ = 0;

  std::vector<Node> nodes_;
  std::vector<std::int32_t> free_nodes_;
  std::vector<std::vector<std::int32_t>> robot_nodes_;  ///< robot → its nodes

  // Pending collapses: (settle_time, robot | generation). A stale entry
  // (robot re-committed since push) is recognized by its generation and
  // skipped on pop.
  std::priority_queue<std::pair<Time, std::uint64_t>,
                      std::vector<std::pair<Time, std::uint64_t>>,
                      std::greater<>>
      settle_queue_;
  std::vector<std::uint32_t> generation_;
  std::vector<geom::Vec2> settle_pos_;  ///< end-of-segment position per robot

  // Robots whose segment box exceeded the bucket-span cap: always scanned.
  std::vector<std::uint32_t> outliers_;
  std::vector<std::int32_t> outlier_slot_;  ///< index into outliers_, or -1
  IdBitmap marks_;
};

}  // namespace cohesion::core
