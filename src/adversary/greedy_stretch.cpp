#include "adversary/greedy_stretch.hpp"

#include <algorithm>
#include <limits>

namespace cohesion::adversary {

using core::Activation;
using core::RobotId;
using core::SimulationView;
using core::Snapshot;
using geom::Vec2;

GreedyStretchScheduler::GreedyStretchScheduler(const core::Algorithm& algorithm,
                                               std::vector<Vec2> initial, Params params)
    : algorithm_(algorithm), initial_(std::move(initial)), params_(params), n_(initial_.size()) {
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = i + 1; j < n_; ++j) {
      if (initial_[i].distance_to(initial_[j]) <= params_.visibility + 1e-12) {
        watched_pairs_.emplace_back(i, j);
      }
    }
  }
}

Snapshot GreedyStretchScheduler::snapshot_at(const SimulationView& view, RobotId robot,
                                             double t) const {
  const Vec2 self = view.position(robot, t);
  Snapshot snap;
  for (RobotId other = 0; other < n_; ++other) {
    if (other == robot) continue;
    const Vec2 p = view.position(other, t);
    if (self.distance_to(p) <= params_.visibility + 1e-12) {
      snap.neighbours().push_back({p - self, false});
    }
  }
  return snap;
}

double GreedyStretchScheduler::score_candidate(const SimulationView& view, RobotId robot,
                                               double look, double fraction) const {
  const Snapshot snap = snapshot_at(view, robot, look);
  const Vec2 self = view.position(robot, look);
  const Vec2 move = algorithm_.compute(snap) * fraction;
  const Vec2 dest = self + move;

  // Everyone else at their committed endpoints ("far future").
  const double future = look + 1e6;
  double worst = 0.0;
  for (const auto& [i, j] : watched_pairs_) {
    const Vec2 pi = (i == robot) ? dest : view.position(i, future);
    const Vec2 pj = (j == robot) ? dest : view.position(j, future);
    worst = std::max(worst, pi.distance_to(pj));
  }
  // Tie-break toward motion: among equally-stretching choices, prefer the
  // one that displaces a robot the most — stasis never sets up a future
  // stale-snapshot opportunity.
  return worst + 1e-4 * move.norm();
}

std::optional<Activation> GreedyStretchScheduler::next(const SimulationView& view) {
  const double frontier = view.frontier();
  Candidate best{0, frontier, 1.0, -1.0};

  const bool forced = params_.fairness_every != 0 && picks_ % params_.fairness_every == 0;
  const RobotId forced_robot = picks_ % std::max<std::size_t>(n_, 1);

  for (RobotId r = 0; r < n_; ++r) {
    if (forced && r != forced_robot) continue;
    double look = std::max(view.busy_until(r), frontier);
    // Respect the k-bound by postponement, as in KAsyncScheduler.
    if (params_.k != static_cast<std::size_t>(-1)) {
      bool moved = true;
      while (moved) {
        moved = false;
        for (const OpenInterval& c : open_) {
          if (c.robot == r) continue;
          if (look > c.start + 1e-12 && look < c.end - 1e-12 && c.looks_inside[r] >= params_.k) {
            look = c.end;
            moved = true;
          }
        }
      }
    }
    for (const double fraction : {params_.xi, 1.0}) {
      const double score = score_candidate(view, r, look, fraction);
      // Prefer higher score; tie-break toward earlier look times so the
      // schedule stays dense.
      if (score > best.score + 1e-12 ||
          (score > best.score - 1e-12 && look < best.look)) {
        best = {r, look, fraction, score};
      }
    }
  }
  ++picks_;

  Activation a;
  a.robot = best.robot;
  a.t_look = best.look;
  a.t_move_start = best.look + 0.1;
  a.t_move_end = best.look + params_.move_duration;
  a.realized_fraction = best.fraction;

  for (OpenInterval& c : open_) {
    if (c.robot != best.robot && best.look > c.start + 1e-12 && best.look < c.end - 1e-12) {
      ++c.looks_inside[best.robot];
    }
  }
  open_.push_back({best.robot, a.t_look, a.t_move_end, std::vector<std::size_t>(n_, 0)});
  std::erase_if(open_, [&](const OpenInterval& c) { return c.end <= best.look + 1e-12; });

  return a;
}

}  // namespace cohesion::adversary
