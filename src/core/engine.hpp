// The continuous-time Look-Compute-Move simulation engine.
//
// Activations are committed in non-decreasing Look-time order. Because a
// robot's trajectory is fixed at commit time (Compute uses only the
// snapshot; OBLOT robots are oblivious), any later Look can evaluate every
// robot's exact position by piecewise-linear interpolation — which yields
// the Async semantics of the paper: a Look may catch another robot anywhere
// along its current trajectory.
//
// Positions live in two tiers:
//
//  * Trace — the append-only full history. Replay, validators, metrics and
//    serialization consume it; reconstructing a position from it costs a
//    binary search over the robot's activation history.
//  * KinematicState — each robot's *current* trajectory segment, updated on
//    commit. Since commits arrive in non-decreasing Look order, every
//    position the hot path needs (at or after the latest segment's Look) is
//    an O(1) interpolation of that segment, bit-identical to what the Trace
//    would reconstruct.
//
// Each Look gathers candidates from an IncrementalGrid, which buckets every
// robot by the cells of its current trajectory segment and re-buckets only
// the robots a commit touched, so neither a Look nor a commit pays O(n).
// Candidates are evaluated through the kinematic cache (or the SoA lanes,
// with EngineConfig::soa_kernel) and filtered with the exact visibility
// predicate; a Look placed before the previous one by the scheduler's
// 1e-12 slack is served by a scan over history instead. The brute-force
// reference engine every result is certified against lives in the tests
// (tests/oracles/engine_oracle.hpp): it applies the same predicate and
// draws RNG in the same order, so both commit bit-identical traces.
#pragma once

#include <functional>
#include <memory>
#include <random>
#include <vector>

#include "core/activation.hpp"
#include "core/algorithm.hpp"
#include "core/colocation.hpp"
#include "core/error_model.hpp"
#include "core/kinematics.hpp"
#include "core/scheduler.hpp"
#include "core/soa_pool.hpp"
#include "core/spatial_index.hpp"
#include "core/stop_condition.hpp"
#include "core/trace.hpp"
#include "core/types.hpp"
#include "geometry/vec2.hpp"

namespace cohesion::core {

/// Visibility semantics (paper §2.1 and §6.2).
struct VisibilityModel {
  double radius = 1.0;                  ///< common visibility range V
  std::vector<double> per_robot_radii;  ///< optional per-robot radii (§6.2)
  bool open_ball = false;               ///< strict < V instead of <= V
  bool multiplicity_detection = false;  ///< co-located robots distinguishable

  [[nodiscard]] double radius_of(RobotId r) const {
    return per_robot_radii.empty() ? radius : per_robot_radii.at(r);
  }
};

struct EngineConfig {
  VisibilityModel visibility;
  ErrorModel error;
  std::uint64_t seed = 1;
  /// Structure-of-arrays snapshot kernel (src/core/soa_pool): candidate
  /// positions are evaluated straight from an SoA segment pool into
  /// parallel coordinate lanes and pre-filtered by a vectorizable
  /// squared-distance loop against certified conservative bounds; only the
  /// narrow borderline band re-runs the exact hypot predicate, so results
  /// stay bit-identical to the scalar reference
  /// (architecture contract 12, certified by tests/core/soa_equivalence_
  /// test.cpp under ASan and -march=native). false keeps the scalar
  /// filter, which remains the default.
  bool soa_kernel = false;
  /// Materialize the full activation history in the in-memory Trace. false
  /// selects the bounded-memory mode: the engine keeps only each robot's
  /// current + previous trajectory segment (O(robot count) state, not
  /// O(activation count)); history consumers attach through
  /// set_trace_sink() instead.
  bool record_history = true;
};

/// Hook that lets an adversary replace the perceived snapshot of a given
/// robot wholesale (used by the Section-7 impossibility construction, which
/// chooses worst-case in-spec perception). Receives the robot, the look
/// time, and the honestly-perceived snapshot; returns the snapshot actually
/// delivered to the algorithm.
using PerceptionHook =
    std::function<Snapshot(RobotId, Time, const Snapshot&)>;

class Engine final : public SimulationView {
 public:
  Engine(std::vector<geom::Vec2> initial, const Algorithm& algorithm, Scheduler& scheduler,
         EngineConfig config = {});

  // SimulationView:
  [[nodiscard]] std::size_t robot_count() const override { return trace_.robot_count(); }
  [[nodiscard]] Time busy_until(RobotId robot) const override { return busy_until_.at(robot); }
  [[nodiscard]] Time frontier() const override { return frontier_; }
  [[nodiscard]] geom::Vec2 position(RobotId robot, Time t) const override;
  [[nodiscard]] std::size_t activations_of(RobotId robot) const override {
    return activation_counts_.at(robot);
  }

  /// Execute one activation. Returns false iff the scheduler ended the run.
  bool step();

  /// Run until `max_activations` have been committed or the scheduler ends.
  /// Returns the number of activations executed.
  std::size_t run(std::size_t max_activations);

  /// Run until `stop` fires (diameter <= epsilon, predicate true, or budget
  /// exhausted) or the scheduler ends. Returns true iff the final diameter
  /// is <= stop.epsilon.
  bool run_until(const StopCondition& stop);

  /// Convenience overload of run_until for the common diameter-only rule.
  bool run_until_converged(double epsilon, std::size_t max_activations,
                           std::size_t check_every = 64);

  /// Mark a robot crashed (fail-stop, §6.1): from now on its activations
  /// perform the nil movement.
  void crash(RobotId robot) { crashed_.at(robot) = true; }

  /// The materialized history. With record_history = false this holds only
  /// the initial configuration (no records) — consume the sink instead.
  [[nodiscard]] const Trace& trace() const { return trace_; }
  [[nodiscard]] std::vector<geom::Vec2> current_configuration() const;
  [[nodiscard]] double current_diameter() const;

  /// Time of the last committed move end (0 before any activation).
  /// Maintained by the engine itself, so it is exact in both history modes.
  [[nodiscard]] Time end_time() const { return end_time_; }

  /// Attach a sink that receives every subsequently-committed
  /// ActivationRecord (after the in-memory Trace, when that is recording).
  /// Non-owning; pass nullptr to detach. The engine never calls finish() —
  /// the owner does, once stepping is over.
  void set_trace_sink(TraceSink* sink) { sink_ = sink; }

  void set_perception_hook(PerceptionHook hook) { perception_hook_ = std::move(hook); }

  /// Exact perceived positions the last Look built with libm
  /// (Snapshot::materializations of its honest snapshot, after Compute):
  /// a deterministic work count, small when the snapshot is decided on
  /// proxies.
  [[nodiscard]] std::size_t look_materializations() const { return look_materializations_; }

 private:
  /// The staged snapshot of `robot` at `t` in `frame`, co-location applied.
  [[nodiscard]] Snapshot honest_snapshot(RobotId robot, Time t, const LocalFrame& frame);
  /// Visible-neighbor enumeration via the incrementally-maintained grid:
  /// candidate cells from IncrementalGrid, exact positions through the
  /// kinematic cache (or the SoA lanes).
  void snapshot_via_incremental(RobotId robot, Time t, Snapshot& snap);
  /// Visible-neighbor enumeration by a full scan over history positions:
  /// the fallback for a Look placed before the previous one.
  void snapshot_via_scan(RobotId robot, Time t, Snapshot& snap);
  /// Stage the SoA filter's survivors into the snapshot — the same
  /// ascending-id staging sequence the scalar loop produces.
  void append_soa_survivors(Snapshot& snap);
  /// positions_now_[robot] at the incremental path's current query time,
  /// computed on first use per (robot, time) and invalidated on commit.
  [[nodiscard]] geom::Vec2 cached_position(RobotId robot);
  /// Position from history for a query the kinematic cache's current
  /// segment cannot answer (t before the segment's Look): the Trace when
  /// recording, else the retained previous segment.
  [[nodiscard]] geom::Vec2 history_position(RobotId robot, Time t) const;

  const Algorithm& algorithm_;
  Scheduler& scheduler_;
  EngineConfig config_;
  Trace trace_;
  KinematicState kin_;
  std::vector<Time> busy_until_;
  std::vector<std::size_t> activation_counts_;
  std::vector<bool> crashed_;
  Time frontier_ = 0.0;
  Time end_time_ = 0.0;  // running max of committed t_move_end
  std::mt19937_64 rng_;
  TraceSink* sink_ = nullptr;
  PerceptionHook perception_hook_;
  std::size_t look_materializations_ = 0;

  std::vector<geom::Vec2> positions_now_;   // positions at pos_time_, per stamp
  std::vector<std::size_t> neighbor_ids_;   // query scratch
  ColocationIndex colocation_;              // collapse/flag co-located neighbours

  // Persistent buckets, and per-robot position stamps instead of
  // wholesale refreshes.
  IncrementalGrid index_;
  std::vector<std::uint64_t> pos_epoch_;    // positions_now_[r] valid iff == epoch_
  std::uint64_t epoch_ = 1;                 // bumped whenever pos_time_ changes
  Time pos_time_ = 0.0;                     // time positions_now_ entries describe
  Time index_time_ = 0.0;                   // last forward query time

  // SoA kernel (config_.soa_kernel): segment lanes mirroring kin_, and the
  // gather/filter scratch. Empty when the scalar filter is selected.
  SoaSegmentPool soa_segments_;
  SoaNeighborFilter soa_filter_;
};

}  // namespace cohesion::core
