// The trajectory-history model every position reader shares.
//
// A committed activation fixes its robot's trajectory segment {from,
// realized, t_look, t_move_start, t_move_end}; segment_position is the one
// interpolation along it, run by Trace::position, by KinematicState and so
// by the engine's hot path and metrics::ConvergenceAccumulator. Every
// reader agrees to the last bit because they run the same code.
//
// KinematicState keeps each robot's current and previous segment, updated
// on every commit. Activations commit in non-decreasing Look order, so
// position_at(robot, t) is O(1) and exact for any t >= segment_start(robot).
// Earlier queries are possible only through the scheduler's kLookSlack; they
// go to the Trace when one is kept, else to position_bounded, which answers
// from the previous segment. The slack reaches further back only when a
// robot completes two activity cycles within it, and position_bounded
// rejects that loudly.
#pragma once

#include <vector>

#include "core/activation.hpp"
#include "core/types.hpp"
#include "geometry/vec2.hpp"

namespace cohesion::core {

/// Position at `t` on a committed segment: at `from` before the move starts,
/// interpolated during it, at `realized` from `t_move_end` on (a zero-length
/// move jumps).
[[nodiscard]] inline geom::Vec2 segment_position(geom::Vec2 from, geom::Vec2 realized,
                                                 Time t_move_start, Time t_move_end, Time t) {
  if (t >= t_move_end) return realized;
  if (t >= t_move_start) {
    const Time span = t_move_end - t_move_start;
    const double frac = span > 0.0 ? (t - t_move_start) / span : 1.0;
    return geom::lerp(from, realized, frac);
  }
  return from;
}

class KinematicState {
 public:
  KinematicState() = default;
  explicit KinematicState(const std::vector<geom::Vec2>& initial);

  /// Replace `rec.activation.robot`'s current segment; the replaced one
  /// becomes its previous segment. Records must arrive in commit order
  /// (non-decreasing t_look up to kLookSlack).
  void commit(const ActivationRecord& rec);

  /// Position of `robot` at `t`. Exact (bit-identical to Trace::position)
  /// for t >= segment_start(robot); undefined earlier.
  [[nodiscard]] geom::Vec2 position_at(RobotId robot, Time t) const {
    return segments_[robot].position(t);
  }

  /// Position of `robot` at `t` from the current segment when
  /// t >= segment_start(robot), else from the previous segment.
  /// Bit-identical to Trace::position wherever it answers; throws
  /// std::logic_error naming the robot and `t` when `t` predates the
  /// previous segment's Look too.
  [[nodiscard]] geom::Vec2 position_bounded(RobotId robot, Time t) const;

  /// Look time of the robot's current segment (0 before any activation; the
  /// initial segment is valid at every time).
  [[nodiscard]] Time segment_start(RobotId robot) const { return segments_[robot].t_look; }

  /// Endpoints and end time of the robot's current segment: what an
  /// incremental spatial index buckets by.
  [[nodiscard]] geom::Vec2 segment_from(RobotId robot) const { return segments_[robot].from; }
  [[nodiscard]] geom::Vec2 segment_realized(RobotId robot) const {
    return segments_[robot].realized;
  }
  [[nodiscard]] Time segment_end(RobotId robot) const { return segments_[robot].t_move_end; }

  [[nodiscard]] std::size_t robot_count() const { return segments_.size(); }

 private:
  struct Segment {
    geom::Vec2 from;
    geom::Vec2 realized;
    Time t_look = 0.0;
    Time t_move_start = 0.0;
    Time t_move_end = 0.0;

    [[nodiscard]] geom::Vec2 position(Time t) const {
      return segment_position(from, realized, t_move_start, t_move_end, t);
    }
  };

  std::vector<Segment> segments_;
  // The segment before the current one; a never-activated robot's is its
  // initial rest segment (Look 0), so it answers any t >= 0 like the Trace.
  std::vector<Segment> previous_;
};

}  // namespace cohesion::core
