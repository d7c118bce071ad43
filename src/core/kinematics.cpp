#include "core/kinematics.hpp"

#include <stdexcept>
#include <string>

namespace cohesion::core {

using geom::Vec2;

KinematicState::KinematicState(const std::vector<Vec2>& initial)
    : segments_(initial.size()) {
  for (std::size_t r = 0; r < initial.size(); ++r) {
    segments_[r].from = initial[r];
    segments_[r].realized = initial[r];
  }
}

void KinematicState::set_keep_previous(bool on) {
  keep_previous_ = on;
  if (on) {
    // The "previous" segment of a never-activated robot is its initial rest
    // segment (Look time 0, already settled), so position_bounded answers
    // any t >= 0 for it — matching Trace::position's initial fallback.
    previous_ = segments_;
  } else {
    previous_.clear();
  }
}

void KinematicState::commit(const ActivationRecord& rec) {
  Segment& s = segments_.at(rec.activation.robot);
  if (keep_previous_) previous_[rec.activation.robot] = s;
  s.from = rec.from;
  s.realized = rec.realized;
  s.t_look = rec.activation.t_look;
  s.t_move_start = rec.activation.t_move_start;
  s.t_move_end = rec.activation.t_move_end;
  dirty_.push_back(rec.activation.robot);
}

Vec2 KinematicState::eval(const Segment& s, Time t) {
  // Mirrors the tail of Trace::position exactly — same branches, same
  // arithmetic — so both tiers agree to the last bit.
  if (t >= s.t_move_end) return s.realized;
  if (t >= s.t_move_start) {
    const Time span = s.t_move_end - s.t_move_start;
    const double frac = span > 0.0 ? (t - s.t_move_start) / span : 1.0;
    return geom::lerp(s.from, s.realized, frac);
  }
  return s.from;
}

Vec2 KinematicState::position_at(RobotId robot, Time t) const {
  return eval(segments_[robot], t);
}

Vec2 KinematicState::position_bounded(RobotId robot, Time t) const {
  if (t >= segments_[robot].t_look) return eval(segments_[robot], t);
  const Segment& prev = previous_.at(robot);
  if (t >= prev.t_look) return eval(prev, t);
  throw std::logic_error(
      "KinematicState::position_bounded: query at t=" + std::to_string(t) + " for robot " +
      std::to_string(robot) + " predates the retained previous segment (Look " +
      std::to_string(prev.t_look) +
      ") — with record_history=false the engine keeps no older history");
}

}  // namespace cohesion::core
