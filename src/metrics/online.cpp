#include "metrics/online.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/scheduler.hpp"
#include "geometry/convex_hull.hpp"

namespace cohesion::metrics {

using core::RobotId;
using core::Time;
using geom::Vec2;

ConvergenceAccumulator::ConvergenceAccumulator(const std::vector<Vec2>& initial, double v,
                                               double epsilon)
    : epsilon_(epsilon),
      stretch_(initial, v),
      kin_(initial),
      rounds_(initial.size()),
      initial_diameter_(geom::set_diameter(initial)) {
  // The batch path samples every round boundary, and round_boundaries()
  // always starts with t = 0 — open it here so a zero-duration move at
  // time 0 (which teleports a robot at the sampled instant) lands in it.
  open_sample(0.0);
}

void ConvergenceAccumulator::open_sample(Time t) {
  PendingSample s;
  s.t = t;
  s.positions.resize(kin_.robot_count());
  for (RobotId r = 0; r < kin_.robot_count(); ++r) s.positions[r] = kin_.position_bounded(r, t);
  pending_.push_back(std::move(s));
}

double ConvergenceAccumulator::fold_sample(const std::vector<Vec2>& cfg) {
  const double diam = geom::set_diameter(cfg);
  if (rounds_to_halve_ == 0 && sample_index_ > 0 && diam <= initial_diameter_ / 2.0) {
    rounds_to_halve_ = sample_index_;
  }
  const double stretch = stretch_.worst_stretch(cfg);
  worst_stretch_ = std::max(worst_stretch_, stretch);
  if (stretch > 1.0 + 1e-9) cohesive_ = false;
  ++sample_index_;
  return diam;
}

void ConvergenceAccumulator::finalize_front() {
  fold_sample(pending_.front().positions);
  pending_.pop_front();
}

void ConvergenceAccumulator::add(const core::ActivationRecord& rec) {
  const core::Activation& a = rec.activation;
  const RobotId r = a.robot;
  if (r >= kin_.robot_count()) throw std::logic_error("ConvergenceAccumulator: bad robot id");

  // A Look beyond a pending sample's slack window proves no future record
  // can move anything at that sample — fold it into the report.
  while (!pending_.empty() && a.t_look > pending_.front().t + core::kLookSlack) finalize_front();

  kin_.commit(rec);

  // This record is now r's latest with t_look <= s.t at every pending
  // sample it reaches — exactly the record Trace::position would pick.
  for (PendingSample& s : pending_) {
    if (a.t_look <= s.t) s.positions[r] = kin_.position_at(r, s.t);
  }
  if (rounds_.add(a)) open_sample(rounds_.boundary());

  end_time_ = std::max(end_time_, a.t_move_end);
  ++activations_;
}

ConvergenceReport ConvergenceAccumulator::finish() {
  if (finished_) throw std::logic_error("ConvergenceAccumulator::finish called twice");
  finished_ = true;
  while (!pending_.empty()) finalize_front();

  // The batch path appends one sample past the end of all committed motion.
  const Time t_end = end_time_ + 1.0;
  std::vector<Vec2> cfg(kin_.robot_count());
  for (RobotId r = 0; r < kin_.robot_count(); ++r) cfg[r] = kin_.position_at(r, t_end);
  const double final_diameter = fold_sample(cfg);

  ConvergenceReport rep;
  rep.activations = activations_;
  rep.initial_diameter = initial_diameter_;
  rep.rounds = rounds_.rounds();
  rep.rounds_to_halve = rounds_to_halve_;
  rep.worst_stretch = worst_stretch_;
  rep.cohesive = cohesive_;
  rep.final_diameter = final_diameter;
  rep.converged = rep.final_diameter <= epsilon_;
  return rep;
}

}  // namespace cohesion::metrics
