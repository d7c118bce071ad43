#include "core/kinematics.hpp"

#include <charconv>
#include <stdexcept>
#include <string>

namespace cohesion::core {

using geom::Vec2;

KinematicState::KinematicState(const std::vector<Vec2>& initial) : segments_(initial.size()) {
  for (std::size_t r = 0; r < initial.size(); ++r) {
    segments_[r].from = initial[r];
    segments_[r].realized = initial[r];
  }
  previous_ = segments_;
}

void KinematicState::commit(const ActivationRecord& rec) {
  Segment& s = segments_.at(rec.activation.robot);
  previous_[rec.activation.robot] = s;
  s.from = rec.from;
  s.realized = rec.realized;
  s.t_look = rec.activation.t_look;
  s.t_move_start = rec.activation.t_move_start;
  s.t_move_end = rec.activation.t_move_end;
}

Vec2 KinematicState::position_bounded(RobotId robot, Time t) const {
  if (t >= segments_[robot].t_look) return segments_[robot].position(t);
  const Segment& prev = previous_.at(robot);
  if (t >= prev.t_look) return prev.position(t);
  char when[32];
  const auto end = std::to_chars(when, when + sizeof when, t).ptr;
  throw std::logic_error("bounded history: robot " + std::to_string(robot) +
                         " completed two activity cycles within the look slack before t=" +
                         std::string(when, end) +
                         "; only its current and previous segments are kept");
}

}  // namespace cohesion::core
