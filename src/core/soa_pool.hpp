// Structure-of-arrays pools for the vectorizable snapshot kernel
// (EngineConfig::soa_kernel).
//
// The scalar snapshot loop pays a branchy per-candidate segment
// interpolation and a per-candidate visibility test. This file provides the
// SoA counterparts the kernel seam in Engine's snapshot feed dispatches to:
//
//  * SoaSegmentPool — every robot's current trajectory segment split into
//    parallel coordinate/time lanes. gather-free evaluation of many robots
//    at one time is a straight-line loop of fused select/lerp lanes the
//    compiler can vectorize, running KinematicState::eval's exact branch
//    arithmetic per lane (contract: bit-identical positions).
//
//  * SoaNeighborFilter — gathers candidate positions into x/y lanes,
//    computes squared distances in one vectorizable pass, and classifies
//    each lane against *certified* conservative bounds around the exact
//    visibility ball: lanes certainly inside are kept, lanes certainly
//    outside dropped, and only the narrow borderline band re-runs the
//    exact scalar predicate (Vec2::distance_to, i.e. std::hypot). The
//    decision per candidate is therefore the exact predicate's decision by
//    construction — never the squared-distance approximation's — so the
//    SoA path stays bit-identical to the scalar reference regardless of
//    compiler FP contraction or vector width (architecture contract 12),
//    while almost every candidate skips the hypot call.
//
// The certified bounds and their exact fallback are VisibilityBall
// (core/spatial_index.hpp), the predicate every engine visibility test
// shares.
#pragma once

#include <cstdint>
#include <vector>

#include "core/activation.hpp"
#include "core/spatial_index.hpp"
#include "core/types.hpp"
#include "geometry/vec2.hpp"

namespace cohesion::core {

/// SoA mirror of KinematicState's per-robot current segments. commit() is
/// fed the same ActivationRecords in the same order, and position lanes are
/// evaluated with the exact arithmetic of KinematicState::eval, so every
/// value read out of the pool is bit-identical to the scalar cache.
class SoaSegmentPool {
 public:
  SoaSegmentPool() = default;

  /// Rebuild as n settled robots resting at `initial` (the degenerate
  /// segment initial[r] -> initial[r], matching KinematicState's ctor).
  void reset(const std::vector<geom::Vec2>& initial);

  /// Replace the committing robot's segment lanes (engine commit order).
  void commit(const ActivationRecord& rec);

  [[nodiscard]] std::size_t robot_count() const { return from_x_.size(); }

  /// Scalar per-robot evaluation — KinematicState::eval's exact branches.
  [[nodiscard]] geom::Vec2 position_at(RobotId robot, Time t) const;

  // Raw lanes for the filter's gather loop.
  [[nodiscard]] const double* from_x() const { return from_x_.data(); }
  [[nodiscard]] const double* from_y() const { return from_y_.data(); }
  [[nodiscard]] const double* to_x() const { return to_x_.data(); }
  [[nodiscard]] const double* to_y() const { return to_y_.data(); }
  [[nodiscard]] const double* t_move_start() const { return t_start_.data(); }
  [[nodiscard]] const double* t_move_end() const { return t_end_.data(); }

 private:
  std::vector<double> from_x_, from_y_;    // segment start point
  std::vector<double> to_x_, to_y_;        // realized end point
  std::vector<double> t_start_, t_end_;    // move interval [start, end]
};

/// Gather + certified squared-distance prefilter over one candidate list.
/// Scratch buffers persist across queries; one instance per engine.
class SoaNeighborFilter {
 public:
  /// Load lanes by evaluating each candidate's segment at time `t`,
  /// skipping `self`. Candidate order (ascending from the index) is
  /// preserved, so survivors come out ascending too. The per-lane
  /// select/lerp runs KinematicState::eval's exact arithmetic, vectorizably.
  void gather_segments(const SoaSegmentPool& pool,
                       const std::vector<std::size_t>& candidates, RobotId self, Time t);

  /// Classify every gathered lane against the exact visibility predicate
  /// around `self` (closed: d <= radius + kVisibilityEpsilon; open:
  /// d < radius, with d = Vec2::distance_to). Certified-out lanes are
  /// dropped, certified-in lanes kept, borderline lanes re-checked exactly.
  void filter(geom::Vec2 self, double radius, bool open_ball);

  [[nodiscard]] std::size_t survivor_count() const { return survivors_.size(); }
  [[nodiscard]] std::size_t survivor_id(std::size_t i) const { return ids_[survivors_[i]]; }
  /// The offset p - self of survivor i, bit-identical to the scalar loop's
  /// `p - self` (the filter's dx/dy lanes are exactly that subtraction).
  [[nodiscard]] geom::Vec2 survivor_offset(std::size_t i) const {
    return {dx_[survivors_[i]], dy_[survivors_[i]]};
  }

 private:
  std::vector<std::uint32_t> ids_;  // candidate ids, ascending, self removed
  std::vector<double> px_, py_;     // gathered absolute positions
  // Contiguous per-candidate segment scratch: a plain scalar gather pass
  // fills these so the eval pass below is pure unit-stride lane math the
  // vectorizer accepts (indexed loads mixed into the arithmetic defeat it).
  std::vector<double> seg_fx_, seg_fy_, seg_tx_, seg_ty_, seg_ts_, seg_te_;
  std::vector<double> dx_, dy_;     // p - self per lane
  std::vector<double> d2_;          // dx*dx + dy*dy per lane
  std::vector<std::uint32_t> survivors_;  // lane indices passing the predicate
};

}  // namespace cohesion::core
