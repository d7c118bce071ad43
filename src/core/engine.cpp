#include "core/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

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
  double max_radius = config_.visibility.radius;
  if (!config_.visibility.per_robot_radii.empty()) {
    max_radius = *std::max_element(config_.visibility.per_robot_radii.begin(),
                                   config_.visibility.per_robot_radii.end());
  }
  instant_margin_ = look_instant_margin(max_radius, config_.error.distance_delta);
  index_.reset(max_radius, trace_.initial_configuration());
  positions_now_.resize(trace_.robot_count());
  pos_epoch_.assign(trace_.robot_count(), 0);
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

bool Engine::snapshot_via_incremental(RobotId robot, Time t, Snapshot& snap) {
  if (t < index_time_) {
    // The scheduler's kLookSlack can place this Look before the previous
    // one, where positions live on segments the buckets no longer cover
    // (and collapsed robots may still be mid-move). Serve the query by a
    // scan over history; the index stays consistent for the next forward
    // query.
    look_grid_nodes_ = 0;
    snapshot_via_scan(robot, t, snap);
    return false;
  }
  index_.advance_to(t);
  index_time_ = t;
  if (pos_time_ != t) {
    pos_time_ = t;
    instant_ = {};
    ++epoch_;
    if (epoch_ == 0) {  // wrapped: stamps are ambiguous, reset them all
      std::fill(pos_epoch_.begin(), pos_epoch_.end(), 0);
      epoch_ = 1;
    }
  }

  // One pass over the candidates, ascending straight from the grid's
  // bitmap: the ball test, then staging, which draws in this order and
  // folds the extent co-location certifies on.
  const Vec2 self = cached_position(robot);
  const double v = config_.visibility.radius_of(robot);
  const VisibilityBall ball(self, v, config_.visibility.open_ball);
  index_.candidates_near(self, v, [&](std::size_t other) {
    if (other == robot) return;
    const Vec2 p = cached_position(other);
    if (ball.contains(p)) snap.stage(p - self, rng_);
  });
  look_grid_nodes_ = index_.nodes_walked();
  return true;
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

const Snapshot& Engine::honest_snapshot(RobotId robot, Time t, const LocalFrame& frame) {
  look_.restage(frame);
  // The instant's certificate covers Looks at pos_time_ in frames without
  // skew (colocation.hpp).
  const bool at_instant = snapshot_via_incremental(robot, t, look_) && !frame.skewed();
  look_colocation_shared_ = at_instant && instant_.apart;
  if (look_colocation_shared_) {
    colocation_.assume_apart();
    return look_;
  }
  const std::size_t bases = look_.size();
  if (config_.visibility.multiplicity_detection) {
    colocation_.flag(look_);
  } else {
    colocation_.collapse(look_);
  }
  if (at_instant) count_instant_bases(bases);
  return look_;
}

void Engine::count_instant_bases(std::size_t bases) {
  if (instant_.bases >= robot_count()) return;  // certified at this time already
  instant_.bases += bases;
  if (instant_.bases < robot_count()) return;
  for (RobotId r = 0; r < robot_count(); ++r) (void)cached_position(r);
  instant_.apart = colocation_.certify_apart(positions_now_, instant_margin_);
  ++instant_certificates_;
}

bool Engine::step() {
  const std::optional<Activation> proposal = scheduler_.next(*this);
  if (!proposal) return false;
  const Activation a = *proposal;

  // --- Contract checks (scheduler bugs should fail loudly). ---
  if (a.robot >= trace_.robot_count()) throw std::logic_error("Engine: bad robot id");
  if (a.t_look + kLookSlack < frontier_) {
    throw std::logic_error("Engine: look time before frontier");
  }
  if (a.t_look + kLookSlack < busy_until_[a.robot]) {
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
  const Snapshot& honest = honest_snapshot(a.robot, a.t_look, frame);
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
  // A move at the certified instant itself (zero duration) invalidates
  // the verdict; every other commit leaves pos_time_'s positions as they
  // were, and positions_now_ holds them all while the verdict stands.
  if (instant_.apart && kin_.position_at(a.robot, pos_time_) != positions_now_[a.robot]) {
    instant_ = {};
  }
  // Re-bucket the committed robot only, not all n; its cached position may
  // describe the replaced segment.
  index_.update(a.robot, kin_.segment_from(a.robot), kin_.segment_realized(a.robot),
                kin_.segment_end(a.robot));
  pos_epoch_[a.robot] = 0;
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

void Engine::configuration_into(std::vector<Vec2>& out) const {
  // Evaluate at the end of all committed motion: the configuration "if
  // nothing further is scheduled". That instant is at or after every
  // committed Look, so the kinematic cache answers in O(n) total.
  const Time t = end_time_ + 1.0;
  out.resize(trace_.robot_count());
  for (RobotId r = 0; r < out.size(); ++r) out[r] = kin_.position_at(r, t);
}

std::vector<Vec2> Engine::current_configuration() const {
  std::vector<Vec2> out;
  configuration_into(out);
  return out;
}

double Engine::current_diameter() const {
  configuration_into(configuration_);
  return diameter_.diameter(configuration_);
}

}  // namespace cohesion::core
