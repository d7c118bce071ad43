// The Section-7 impossibility construction: an Async (in fact NestA, with
// unbounded nesting depth) adversarial scheduler that disconnects an
// initially connected configuration controlled by a cohesive, modestly
// error-tolerant algorithm.
//
// Strategy (paper §7.2):
//  1. Activate robot X_A once. It perceives B and C at the visibility
//     threshold with interior angle 3pi/4 and is forced to plan a move of
//     some zeta > 0 into the sector CAB. Its Move phase is scheduled in the
//     far future, so it stays put — motile — for the whole construction.
//  2. Nested inside X_A's activity interval, flatten the discrete spiral
//     tail sliver by sliver: in stage i, robots X_0 .. X_{i-1} are driven to
//     essential co-linearity with their neighbours so they end up on the
//     chord A-P_i, whose direction rotates by ~psi per stage, accumulating
//     to 3pi/8. Distances from A are preserved up to O(psi^2) per robot.
//  3. X_A's stale move finally executes, carrying it ~zeta in the direction
//     of the bisector of the ORIGINAL angle CAB — while X_B now sits at
//     ~3pi/8 on the other side. Their separation exceeds V: visibility (and
//     connectivity — the components are linearly separable) is broken.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>
#include <vector>

#include "core/scheduler.hpp"
#include "core/trace.hpp"
#include "metrics/configurations.hpp"

namespace cohesion::adversary {

class SliverFlatteningScheduler final : public core::Scheduler {
 public:
  struct Params {
    std::size_t chain_begin = 2;      ///< index of X_B = P_0 in the configuration
    double visibility = 1.0;          ///< V (known to the adversary)
    double colinearity_tolerance = 1e-4;  ///< matches the victim algorithm's threshold
    double far_future = 1e7;          ///< when X_A's Move executes
    std::size_t max_activations = 500000;
  };

  explicit SliverFlatteningScheduler(std::size_t robot_count, Params params);

  std::optional<core::Activation> next(const core::SimulationView& view) override;
  [[nodiscard]] std::string_view name() const override { return "sliver-flattening"; }

 private:
  std::size_t n_;
  Params params_;
  std::size_t stage_ = 1;       // currently flattening toward chord A-P_stage
  double clock_ = 1.0;          // next activation time (inside X_A's interval)
  std::size_t issued_ = 0;
  bool a_committed_ = false;
  bool done_ = false;
};

/// End-to-end run of the impossibility experiment.
struct SpiralExperimentResult {
  std::size_t robot_count = 0;
  double psi = 0.0;
  double edge_scale = 0.0;
  double zeta = 0.0;                 ///< length of X_A's forced move
  double final_separation_ab = 0.0;  ///< |X_A X_B| at the end, units of V
  bool visibility_broken = false;    ///< final_separation_ab > V
  bool initially_connected = false;
  bool finally_connected = false;    ///< visibility graph still connected?
  double max_chain_drift = 0.0;      ///< max | |X_j A|_final - |X_j A|_initial |
  std::size_t activations = 0;
  bool schedule_nested = false;      ///< trace certified NestA
  std::size_t nesting_depth = 0;     ///< activations nested in X_A's interval
};

/// Build the psi-spiral, run the sliver-flattening adversary against the
/// LensMidpoint victim algorithm, and report. `edge_scale` < 1 leaves head
/// room below V for the O(psi^2) flattening drift.
SpiralExperimentResult run_spiral_experiment(double psi, double edge_scale,
                                             std::size_t max_activations = 500000);

}  // namespace cohesion::adversary
