// Reference engine for core::Engine: the Look-Compute-Move loop with the
// snapshot built by a full scan over Trace positions, O(n log k) per Look.
// It shares nothing with the engine's snapshot feed (no grid, no kinematic
// cache, no SoA lanes, no certified band): every robot is reconstructed
// from the Trace and tested with the model's raw predicate, d < V for an
// open ball and d <= V + kVisibilityEpsilon for a closed one. Everything
// else follows Engine::step draw for draw — frame sampling, ascending-id
// Snapshot::stage, ColocationIndex flag/collapse, crash handling and
// apply_motion_error — so a correct engine commits bit-identical records
// (tests/core/engine_equivalence_test.cpp, soa_equivalence_test.cpp).
#pragma once

#include <cstddef>
#include <optional>
#include <random>
#include <vector>

#include "core/algorithm.hpp"
#include "core/colocation.hpp"
#include "core/engine.hpp"
#include "core/scheduler.hpp"
#include "core/snapshot.hpp"
#include "core/spatial_index.hpp"
#include "core/trace.hpp"
#include "geometry/convex_hull.hpp"

namespace cohesion::oracles {

class EngineOracle final : public core::SimulationView {
 public:
  EngineOracle(std::vector<geom::Vec2> initial, const core::Algorithm& algorithm,
               core::Scheduler& scheduler, core::EngineConfig config)
      : algorithm_(algorithm),
        scheduler_(scheduler),
        config_(std::move(config)),
        trace_(std::move(initial)),
        busy_until_(trace_.robot_count(), 0.0),
        crashed_(trace_.robot_count(), false),
        rng_(config_.seed) {}

  [[nodiscard]] std::size_t robot_count() const override { return trace_.robot_count(); }
  [[nodiscard]] core::Time busy_until(core::RobotId robot) const override {
    return busy_until_.at(robot);
  }
  [[nodiscard]] core::Time frontier() const override { return frontier_; }
  [[nodiscard]] geom::Vec2 position(core::RobotId robot, core::Time t) const override {
    return trace_.position(robot, t);
  }
  [[nodiscard]] std::size_t activations_of(core::RobotId robot) const override {
    return trace_.activation_count(robot);
  }

  void crash(core::RobotId robot) { crashed_.at(robot) = true; }

  bool step() {
    const std::optional<core::Activation> proposal = scheduler_.next(*this);
    if (!proposal) return false;
    const core::Activation a = *proposal;

    // Look.
    const core::LocalFrame frame = config_.error.exact() && !config_.error.random_rotation
                                       ? core::LocalFrame::identity()
                                       : core::LocalFrame::sample(config_.error, rng_);
    const geom::Vec2 self = trace_.position(a.robot, a.t_look);
    const double v = config_.visibility.radius_of(a.robot);
    core::Snapshot snap(frame);
    for (core::RobotId other = 0; other < trace_.robot_count(); ++other) {
      if (other == a.robot) continue;
      const geom::Vec2 p = trace_.position(other, a.t_look);
      const double d = self.distance_to(p);
      const bool visible =
          config_.visibility.open_ball ? d < v : d <= v + core::kVisibilityEpsilon;
      if (visible) snap.stage(p - self, rng_);
    }
    if (config_.visibility.multiplicity_detection) {
      colocation_.flag(snap);
    } else {
      colocation_.collapse(snap);
    }

    // Compute.
    const geom::Vec2 local =
        crashed_[a.robot] ? geom::Vec2{0.0, 0.0} : algorithm_.compute(snap);
    const geom::Vec2 planned = self + frame.intent_to_global(local);

    // Move.
    geom::Vec2 realized = geom::lerp(self, planned, a.realized_fraction);
    realized = core::apply_motion_error(self, realized, config_.error.motion_quad_coeff, v, rng_);
    trace_.record({a, self, planned, realized, snap.size()});
    busy_until_[a.robot] = a.t_move_end;
    frontier_ = a.t_look;
    return true;
  }

  std::size_t run(std::size_t max_activations) {
    std::size_t done = 0;
    while (done < max_activations && step()) ++done;
    return done;
  }

  [[nodiscard]] const core::Trace& trace() const { return trace_; }
  [[nodiscard]] std::vector<geom::Vec2> current_configuration() const {
    return trace_.configuration(trace_.end_time() + 1.0);
  }
  [[nodiscard]] double current_diameter() const {
    return geom::set_diameter(current_configuration());
  }

 private:
  const core::Algorithm& algorithm_;
  core::Scheduler& scheduler_;
  core::EngineConfig config_;
  core::Trace trace_;
  std::vector<core::Time> busy_until_;
  std::vector<bool> crashed_;
  core::Time frontier_ = 0.0;
  std::mt19937_64 rng_;
  core::ColocationIndex colocation_;
};

}  // namespace cohesion::oracles
