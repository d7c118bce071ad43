// Scheduler (adversary) interface — paper §2.3.1.
//
// A scheduler owns all timing decisions: when each robot is activated, how
// long its Compute and Move phases last, and how much of the planned
// trajectory is realized (xi-rigidity). The engine pulls activations one at
// a time; proposals must be in non-decreasing t_look order so that every
// Look can observe the committed (piecewise-linear) trajectories of all
// other robots.
#pragma once

#include <optional>

#include "core/activation.hpp"
#include "core/types.hpp"
#include "geometry/vec2.hpp"

namespace cohesion::core {

/// How far a Look may fall before the previous Look (the frontier) or its
/// robot's busy_until and still be accepted: the one look-ordering slack
/// the engine, the scripted scheduler and the online metrics agree on.
inline constexpr double kLookSlack = 1e-12;

/// Read-only view of the simulation the scheduler may inspect. Adversarial
/// schedulers in the paper are omniscient, so full state is exposed.
class SimulationView {
 public:
  virtual ~SimulationView() = default;
  [[nodiscard]] virtual std::size_t robot_count() const = 0;
  /// End of the robot's last committed activity interval (0 if none).
  [[nodiscard]] virtual Time busy_until(RobotId robot) const = 0;
  /// Look time of the most recently committed activation (0 if none).
  [[nodiscard]] virtual Time frontier() const = 0;
  /// True position of a robot at a time not after the frontier... (times in
  /// the future of all committed moves evaluate to the final committed
  /// endpoint, i.e. "if nothing else happens").
  [[nodiscard]] virtual geom::Vec2 position(RobotId robot, Time t) const = 0;
  /// Number of committed activations of `robot`.
  [[nodiscard]] virtual std::size_t activations_of(RobotId robot) const = 0;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Propose the next activation, or nullopt to end the run (scripted
  /// schedules end; generative schedulers never return nullopt).
  ///
  /// Contract: t_look >= view.frontier(), t_look >= view.busy_until(robot)
  /// (each up to kLookSlack), t_look <= t_move_start <= t_move_end,
  /// realized_fraction in (0, 1].
  virtual std::optional<Activation> next(const SimulationView& view) = 0;

  [[nodiscard]] virtual std::string_view name() const = 0;
};

}  // namespace cohesion::core
