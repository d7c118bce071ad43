// The full history of a simulation run: initial configuration plus every
// committed activation in look-time order. Validators, metrics and tests
// all consume traces. Trace is the in-memory TraceSink implementation —
// the bit-identical reference the streaming sinks (src/trace) are proven
// against.
#pragma once

#include <algorithm>
#include <vector>

#include "core/activation.hpp"
#include "core/kinematics.hpp"
#include "core/trace_sink.hpp"
#include "core/types.hpp"
#include "geometry/vec2.hpp"

namespace cohesion::core {

/// The paper's unit for convergence rates in asynchronous models. Rounds
/// are consecutive intervals [t_i, t_{i+1}), t_0 = 0, each a minimal
/// interval in which every robot completes at least one full activity
/// cycle that starts in it; t_{i+1} is the latest move end among the
/// cycles counted for round i.
class RoundCounter {
 public:
  explicit RoundCounter(std::size_t robots) : done_(robots, false), remaining_(robots) {}

  /// Fold one activation, in commit order. True iff it completed a round,
  /// whose end is then boundary().
  bool add(const Activation& a);

  /// The latest round boundary (0 before the first round completes).
  [[nodiscard]] Time boundary() const { return boundary_; }
  [[nodiscard]] std::size_t rounds() const { return rounds_; }

 private:
  std::vector<bool> done_;  // robots counted in the open round
  std::size_t remaining_;
  std::size_t rounds_ = 0;
  Time round_end_ = 0.0;  // max move end among the cycles counted so far
  Time boundary_ = 0.0;
};

class Trace final : public TraceSink {
 public:
  Trace() = default;
  explicit Trace(std::vector<geom::Vec2> initial)
      : initial_(std::move(initial)), per_robot_(initial_.size()) {}

  void record(const ActivationRecord& rec) {
    per_robot_.at(rec.activation.robot).push_back(records_.size());
    records_.push_back(rec);
    end_time_ = std::max(end_time_, rec.activation.t_move_end);
  }

  // TraceSink: materialize every record.
  void append(const ActivationRecord& rec) override { record(rec); }

  [[nodiscard]] const std::vector<geom::Vec2>& initial_configuration() const { return initial_; }
  [[nodiscard]] const std::vector<ActivationRecord>& records() const { return records_; }
  [[nodiscard]] std::size_t robot_count() const { return initial_.size(); }

  /// Position of `robot` at time `t`, reconstructed from the trace
  /// (piecewise-linear interpolation during Move phases).
  [[nodiscard]] geom::Vec2 position(RobotId robot, Time t) const;

  /// Positions of all robots at time `t`.
  [[nodiscard]] std::vector<geom::Vec2> configuration(Time t) const;

  /// Number of completed activations of `robot`. O(1).
  [[nodiscard]] std::size_t activation_count(RobotId robot) const {
    return per_robot_.at(robot).size();
  }

  /// Time of the last committed move end (0 for an empty trace). O(1):
  /// maintained as a running max by record().
  [[nodiscard]] Time end_time() const { return end_time_; }

  /// Round boundaries t_0 = 0 < t_1 < ... (see RoundCounter).
  [[nodiscard]] std::vector<Time> round_boundaries() const;

 private:
  std::vector<geom::Vec2> initial_;
  std::vector<ActivationRecord> records_;  // in non-decreasing t_look order
  std::vector<std::vector<std::size_t>> per_robot_;  // record indices per robot
  Time end_time_ = 0.0;                    // running max of t_move_end
};

}  // namespace cohesion::core
