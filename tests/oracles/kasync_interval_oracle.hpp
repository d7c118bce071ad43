// Flat-scan reference for KAsyncScheduler's k-bound: every open interval
// carries a dense per-robot Look-count vector, and a proposal is postponed
// past each saturated interval containing it until a fixed point. O(n)
// allocation and zeroing per proposal and O(n^2) live memory — the
// scheduler's own bookkeeping before the interval index. It draws the same
// RNG words in the same order as the scheduler (the scalar selection of
// kasync_selection_oracle.hpp on std::mt19937_64, then the same
// distributions), so the two schedules must match bit for bit
// (tests/sched/kasync_index_test.cpp). Default (jittered) selection only.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <random>
#include <string_view>
#include <vector>

#include "core/scheduler.hpp"
#include "oracles/kasync_selection_oracle.hpp"
#include "sched/asynchronous.hpp"

namespace cohesion::oracles {

class KAsyncIntervalScan final : public core::Scheduler {
 public:
  KAsyncIntervalScan(std::size_t robot_count, sched::KAsyncScheduler::Params params)
      : n_(robot_count), params_(params), rng_(params.seed), next_ready_(robot_count, 0.0) {
    std::uniform_real_distribution<double> jitter(0.0, params.min_duration);
    for (auto& t : next_ready_) t = jitter(rng_);
  }

  std::optional<core::Activation> next(const core::SimulationView& view) override {
    const double frontier = view.frontier();
    const core::RobotId best = select_jittered(rng_, next_ready_, frontier);
    double look = std::max(next_ready_[best], frontier);
    if (params_.k != static_cast<std::size_t>(-1)) {
      const double proposed = look;
      look = postpone(best, look);
      if (look != proposed) ++postponements_;
    }

    std::uniform_real_distribution<double> dur(params_.min_duration, params_.max_duration);
    std::uniform_real_distribution<double> gap(params_.min_gap, params_.max_gap);
    std::uniform_real_distribution<double> compute_frac(0.1, 0.5);
    std::uniform_real_distribution<double> frac(params_.xi, 1.0);

    const double duration = dur(rng_);
    core::Activation a;
    a.robot = best;
    a.t_look = look;
    a.t_move_start = look + compute_frac(rng_) * duration;
    a.t_move_end = look + duration;
    a.realized_fraction = params_.xi >= 1.0 ? 1.0 : frac(rng_);

    commit(best, a);

    next_ready_[best] = a.t_move_end + gap(rng_);
    return a;
  }
  [[nodiscard]] std::string_view name() const override { return "k-Async flat scan"; }

  /// Proposals the k-bound moved so far.
  [[nodiscard]] std::size_t postponements() const { return postponements_; }

 private:
  static constexpr double kIntervalEps = 1e-12;

  struct Committed {
    core::RobotId robot;
    double start, end;
    std::vector<std::size_t> looks_inside;  // per-robot Look counts in (start, end)
  };

  double postpone(core::RobotId best, double look) const {
    bool moved = true;
    while (moved) {
      moved = false;
      for (const Committed& c : open_) {
        if (c.robot == best) continue;
        if (look > c.start + kIntervalEps && look < c.end - kIntervalEps &&
            c.looks_inside[best] >= params_.k) {
          look = c.end;  // postpone past the saturated interval
          moved = true;
        }
      }
    }
    return look;
  }

  void commit(core::RobotId best, const core::Activation& a) {
    const double look = a.t_look;
    for (Committed& c : open_) {
      if (c.robot != best && look > c.start + kIntervalEps && look < c.end - kIntervalEps) {
        ++c.looks_inside[best];
      }
    }
    open_.push_back({best, a.t_look, a.t_move_end, std::vector<std::size_t>(n_, 0)});
    std::erase_if(open_, [&](const Committed& c) { return c.end <= look + kIntervalEps; });
  }

  std::size_t n_;
  sched::KAsyncScheduler::Params params_;
  std::mt19937_64 rng_;
  std::vector<double> next_ready_;
  std::vector<Committed> open_;
  std::size_t postponements_ = 0;
};

}  // namespace cohesion::oracles
