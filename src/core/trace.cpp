#include "core/trace.hpp"

#include <algorithm>

namespace cohesion::core {

using geom::Vec2;

Vec2 Trace::position(RobotId robot, Time t) const {
  const auto& idx = per_robot_.at(robot);
  // Find the last activation of this robot with t_look <= t. Only that one
  // determines the position: earlier activations of the same robot ended
  // before its look (activity intervals of one robot never overlap).
  const auto it = std::upper_bound(idx.begin(), idx.end(), t, [&](Time time, std::size_t i) {
    return time < records_[i].activation.t_look;
  });
  if (it == idx.begin()) return initial_.at(robot);
  const ActivationRecord& rec = records_[*(it - 1)];
  return segment_position(rec.from, rec.realized, rec.activation.t_move_start,
                          rec.activation.t_move_end, t);
}

std::vector<Vec2> Trace::configuration(Time t) const {
  std::vector<Vec2> out(initial_.size());
  for (RobotId r = 0; r < initial_.size(); ++r) out[r] = position(r, t);
  return out;
}

bool RoundCounter::add(const Activation& a) {
  // A cycle counts for the round it starts in, once per robot.
  if (a.t_look < boundary_ || done_[a.robot]) return false;
  done_[a.robot] = true;
  round_end_ = std::max(round_end_, a.t_move_end);
  if (--remaining_ > 0) return false;
  boundary_ = round_end_;
  ++rounds_;
  std::fill(done_.begin(), done_.end(), false);
  remaining_ = done_.size();
  return true;
}

std::vector<Time> Trace::round_boundaries() const {
  std::vector<Time> bounds{0.0};
  RoundCounter rounds(initial_.size());
  for (const ActivationRecord& rec : records_) {
    if (rounds.add(rec.activation)) bounds.push_back(rounds.boundary());
  }
  return bounds;
}

}  // namespace cohesion::core
