#include "core/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "geometry/convex_hull.hpp"

namespace cohesion::core {

using geom::Vec2;

Engine::Engine(std::vector<Vec2> initial, const Algorithm& algorithm, Scheduler& scheduler,
               EngineConfig config)
    : algorithm_(algorithm),
      scheduler_(scheduler),
      config_(std::move(config)),
      trace_(std::move(initial)),
      kin_(trace_.initial_configuration()),
      busy_until_(trace_.robot_count(), 0.0),
      activation_counts_(trace_.robot_count(), 0),
      crashed_(trace_.robot_count(), false),
      rng_(config_.seed) {
  if (trace_.robot_count() == 0) throw std::invalid_argument("Engine: empty configuration");
  // Staged perception's bands assume these ranges (core/snapshot.hpp).
  config_.error.validate("Engine: error");
  if (!config_.record_history) {
    // The scheduler's 1e-12 look-ordering slack can query one segment back;
    // without a Trace that history must live in the kinematic state.
    kin_.set_keep_previous(true);
  }
  double max_radius = config_.visibility.radius;
  if (!config_.visibility.per_robot_radii.empty()) {
    max_radius = *std::max_element(config_.visibility.per_robot_radii.begin(),
                                   config_.visibility.per_robot_radii.end());
  }
  index_.reset(max_radius, trace_.initial_configuration());
  positions_now_.resize(trace_.robot_count());
  pos_epoch_.assign(trace_.robot_count(), 0);
  if (config_.soa_kernel) soa_segments_.reset(trace_.initial_configuration());
}

Vec2 Engine::history_position(RobotId robot, Time t) const {
  return config_.record_history ? trace_.position(robot, t) : kin_.position_bounded(robot, t);
}

Vec2 Engine::position(RobotId robot, Time t) const {
  return t >= kin_.segment_start(robot) ? kin_.position_at(robot, t)
                                        : history_position(robot, t);
}

Vec2 Engine::cached_position(RobotId robot) {
  // All segment starts are <= the incremental query time (see
  // snapshot_via_incremental), so the kinematic cache alone is exact here.
  if (pos_epoch_[robot] != epoch_) {
    positions_now_[robot] = kin_.position_at(robot, pos_time_);
    pos_epoch_[robot] = epoch_;
  }
  return positions_now_[robot];
}

void Engine::snapshot_via_incremental(RobotId robot, Time t, Snapshot& snap) {
  // Re-bucket exactly the robots whose segments changed since the last
  // snapshot — between consecutive Look times that is the just-moved robot,
  // not all n. Their cached positions may describe the replaced segment.
  for (const RobotId r : kin_.dirty()) {
    index_.update(r, kin_.segment_from(r), kin_.segment_realized(r), kin_.segment_end(r));
    pos_epoch_[r] = 0;
  }
  kin_.clear_dirty();

  if (t < index_time_) {
    // The scheduler's 1e-12 look-ordering slack can place this Look before
    // the previous one, where positions live on segments the buckets no
    // longer cover (and collapsed robots may still be mid-move). Serve the
    // query by a scan over history; the index stays consistent for the next
    // forward query.
    snapshot_via_scan(robot, t, snap);
    return;
  }
  index_.advance_to(t);
  index_time_ = t;
  if (pos_time_ != t) {
    pos_time_ = t;
    ++epoch_;
    if (epoch_ == 0) {  // wrapped: stamps are ambiguous, reset them all
      std::fill(pos_epoch_.begin(), pos_epoch_.end(), 0);
      epoch_ = 1;
    }
  }

  const Vec2 self = cached_position(robot);
  const double v = config_.visibility.radius_of(robot);
  index_.candidates_near(self, v, neighbor_ids_);
  if (config_.soa_kernel) {
    // SoA kernel: evaluate every candidate's segment at t straight from the
    // SoA lanes (KinematicState::eval's exact arithmetic, vectorizably —
    // no per-candidate epoch bookkeeping), then filter with the certified
    // squared-distance bounds.
    soa_filter_.gather_segments(soa_segments_, neighbor_ids_, robot, t);
    soa_filter_.filter(self, v, config_.visibility.open_ball);
    append_soa_survivors(snap);
    return;
  }
  const VisibilityBall ball(self, v, config_.visibility.open_ball);
  snap.reserve(neighbor_ids_.size());
  for (const std::size_t other : neighbor_ids_) {
    if (other == robot) continue;
    const Vec2 p = cached_position(other);
    if (ball.contains(p)) snap.stage(p - self, rng_);
  }
}

void Engine::snapshot_via_scan(RobotId robot, Time t, Snapshot& snap) {
  // history_position reads the Trace, or the bounded history without one —
  // bit-identical wherever both can answer.
  const Vec2 self = history_position(robot, t);
  const VisibilityBall ball(self, config_.visibility.radius_of(robot),
                            config_.visibility.open_ball);
  for (RobotId other = 0; other < trace_.robot_count(); ++other) {
    if (other == robot) continue;
    const Vec2 p = history_position(other, t);
    if (ball.contains(p)) snap.stage(p - self, rng_);
  }
}

void Engine::append_soa_survivors(Snapshot& snap) {
  const std::size_t m = soa_filter_.survivor_count();
  snap.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    // Survivors are ascending by robot id with self removed, and the stored
    // offset lanes are the scalar loop's `p - self` bit for bit — so this
    // staging loop draws RNG in exactly the scalar order and values.
    snap.stage(soa_filter_.survivor_offset(i), rng_);
  }
}

Snapshot Engine::honest_snapshot(RobotId robot, Time t, const LocalFrame& frame) {
  Snapshot snap(frame);
  snapshot_via_incremental(robot, t, snap);
  if (config_.visibility.multiplicity_detection) {
    colocation_.flag(snap);
  } else {
    colocation_.collapse(snap);
  }
  return snap;
}

bool Engine::step() {
  const std::optional<Activation> proposal = scheduler_.next(*this);
  if (!proposal) return false;
  const Activation a = *proposal;

  // --- Contract checks (scheduler bugs should fail loudly). ---
  if (a.robot >= trace_.robot_count()) throw std::logic_error("Engine: bad robot id");
  if (a.t_look + 1e-12 < frontier_) throw std::logic_error("Engine: look time before frontier");
  if (a.t_look + 1e-12 < busy_until_[a.robot]) {
    throw std::logic_error("Engine: robot activated while still active");
  }
  if (!(a.t_look <= a.t_move_start + 1e-12 && a.t_move_start <= a.t_move_end + 1e-12)) {
    throw std::logic_error("Engine: activation phases out of order");
  }
  if (!(a.realized_fraction > 0.0 && a.realized_fraction <= 1.0)) {
    throw std::logic_error("Engine: realized_fraction outside (0, 1]");
  }

  // --- Look ---
  const LocalFrame frame = config_.error.exact() && !config_.error.random_rotation
                               ? LocalFrame::identity()
                               : LocalFrame::sample(config_.error, rng_);
  // The honest snapshot is staged: exact perceived positions are built
  // only where a reader asks for them (core/snapshot.hpp).
  const Snapshot honest = honest_snapshot(a.robot, a.t_look, frame);
  Snapshot hooked;
  if (perception_hook_) hooked = perception_hook_(a.robot, a.t_look, honest);
  const Snapshot& snap = perception_hook_ ? hooked : honest;

  // --- Compute ---
  const Vec2 self = position(a.robot, a.t_look);
  Vec2 local_destination = crashed_[a.robot] ? Vec2{0.0, 0.0} : algorithm_.compute(snap);
  look_materializations_ = honest.materializations();
  const Vec2 planned = self + frame.intent_to_global(local_destination);

  // --- Move (xi-rigid truncation + motion error) ---
  Vec2 realized = geom::lerp(self, planned, a.realized_fraction);
  realized = apply_motion_error(self, realized, config_.error.motion_quad_coeff,
                                config_.visibility.radius_of(a.robot), rng_);

  ActivationRecord rec{a, self, planned, realized, snap.size()};
  if (config_.record_history) trace_.record(rec);
  kin_.commit(rec);
  if (config_.soa_kernel) soa_segments_.commit(rec);
  if (sink_) sink_->append(rec);
  end_time_ = std::max(end_time_, a.t_move_end);
  busy_until_[a.robot] = a.t_move_end;
  frontier_ = a.t_look;
  ++activation_counts_[a.robot];
  return true;
}

std::size_t Engine::run(std::size_t max_activations) {
  std::size_t done = 0;
  while (done < max_activations && step()) ++done;
  return done;
}

bool Engine::run_until(const StopCondition& stop) {
  const std::size_t check_every = std::max<std::size_t>(stop.check_every, 1);
  // A negative epsilon can never match — skip the O(n) diameter scans
  // entirely so fixed-budget runs cost what Engine::run(max) costs.
  const bool check_diameter = stop.epsilon >= 0.0;
  const bool check_time = stop.max_time > 0.0;
  std::size_t done = 0;
  while (done < stop.max_activations) {
    for (std::size_t i = 0; i < check_every && done < stop.max_activations; ++i, ++done) {
      if (!step()) return check_diameter && current_diameter() <= stop.epsilon;
      if (check_time && frontier_ >= stop.max_time) {
        return check_diameter && current_diameter() <= stop.epsilon;
      }
    }
    if (check_diameter && current_diameter() <= stop.epsilon) return true;
    if (stop.predicate && stop.predicate(*this)) break;
  }
  return check_diameter && current_diameter() <= stop.epsilon;
}

bool Engine::run_until_converged(double epsilon, std::size_t max_activations,
                                 std::size_t check_every) {
  StopCondition stop;
  stop.epsilon = epsilon;
  stop.max_activations = max_activations;
  stop.check_every = check_every;
  return run_until(stop);
}

std::vector<Vec2> Engine::current_configuration() const {
  // Evaluate at the end of all committed motion: the configuration "if
  // nothing further is scheduled". That instant is at or after every
  // committed Look, so the kinematic cache answers in O(n) total.
  const Time t = end_time_ + 1.0;
  std::vector<Vec2> out(trace_.robot_count());
  for (RobotId r = 0; r < out.size(); ++r) out[r] = kin_.position_at(r, t);
  return out;
}

double Engine::current_diameter() const {
  return geom::set_diameter(current_configuration());
}

}  // namespace cohesion::core
