// Single-pass convergence analysis: the same ConvergenceReport analyze()
// computes from a materialized Trace, folded from a forward stream of
// ActivationRecords in bounded memory.
//
// The hard part is that a round boundary T (the paper's rate unit, counted
// by core::RoundCounter as in Trace::round_boundaries) is only *discovered*
// when the round's last robot completes its cycle — but T is the max
// move-end of the counted cycles, so records arriving after the discovery
// can still have Look times <= T and move robots at T. The accumulator
// therefore keeps each discovered boundary as a *pending sample*: an O(n)
// positions-at-T vector updated by late records, finalized (diameter /
// cohesion-stretch folded into the report) only once a record with
// t_look > T + core::kLookSlack proves — via the engine's look-ordering
// contract — that no future record can reach back to T. Finalization order
// is discovery order, so sample indices (and thus rounds_to_halve) match
// the batch path exactly.
//
// Positions come from a core::KinematicState, the engine's own segment
// store: the current segment, or the previous one for a pending T that
// predates it (KinematicState::position_bounded, which rejects a robot
// that completed two activity cycles within the slack). Both run
// core::segment_position, the interpolation Trace::position runs, so the
// report is bit-identical to the whole-trace rescan on the materialized
// trace (the test oracle tests/oracles/analyze_oracle.hpp).
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "core/activation.hpp"
#include "core/kinematics.hpp"
#include "core/trace.hpp"
#include "core/types.hpp"
#include "core/visibility.hpp"
#include "geometry/vec2.hpp"
#include "metrics/stats.hpp"

namespace cohesion::metrics {

class ConvergenceAccumulator {
 public:
  /// `v` is the visibility radius (cohesion stretch unit), `epsilon` the
  /// convergence threshold — the same parameters analyze() takes.
  ConvergenceAccumulator(const std::vector<geom::Vec2>& initial, double v, double epsilon);

  /// Fold one committed activation. Records must arrive in the engine's
  /// commit order (non-decreasing Look times up to core::kLookSlack).
  void add(const core::ActivationRecord& rec);

  /// Finalize remaining samples plus the end-of-run sample and return the
  /// report. Call once, after the last add().
  [[nodiscard]] ConvergenceReport finish();

 private:
  struct PendingSample {
    core::Time t = 0.0;
    std::vector<geom::Vec2> positions;  // configuration at t so far
  };

  void open_sample(core::Time t);
  void finalize_front();
  /// Fold one sampled configuration into the report; returns its diameter.
  double fold_sample(const std::vector<geom::Vec2>& cfg);

  double epsilon_;
  // The initially-visible pair set, indexed once: every sample's stretch.
  core::InitialPairSweep stretch_;
  // Current + previous segment per robot: every pending sample draws on it.
  core::KinematicState kin_;
  core::RoundCounter rounds_;

  std::deque<PendingSample> pending_;  // discovery order == time order

  // Report fields folded as samples finalize.
  std::size_t sample_index_ = 0;
  std::size_t rounds_to_halve_ = 0;
  double initial_diameter_ = 0.0;
  double worst_stretch_ = 0.0;
  bool cohesive_ = true;
  std::size_t activations_ = 0;
  core::Time end_time_ = 0.0;
  bool finished_ = false;
};

}  // namespace cohesion::metrics
