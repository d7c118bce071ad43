// Asynchronous schedulers (paper §2.3.1, Fig. 2).
//
//  * KAsyncScheduler — randomized Async with the k-bound enforced *online*:
//    an activation of Y is postponed past the end of any open interval of X
//    that already contains k Looks of Y. k = SIZE_MAX gives unrestricted
//    Async.
//  * KNestAScheduler — k-NestA: rounds of pair-blocks; the outer robot's
//    interval spans the round, the inner robot performs up to k activations
//    nested inside a sub-slot, sub-slots pairwise disjoint. Roles rotate for
//    fairness.
//  * ScriptedScheduler — replays an explicit activation list (used by the
//    Fig. 4 and Section-7 counterexamples).
#pragma once

#include <deque>
#include <queue>
#include <random>
#include <span>
#include <vector>

#include "core/scheduler.hpp"
#include "sched/mersenne_twister.hpp"

namespace cohesion::sched {

/// KAsyncScheduler's default robot selection. Robot by robot, in index
/// order, draw a tie jitter from `rng` as
/// std::uniform_real_distribution<double>(0, 1e-6) would, and return the
/// robot minimizing max(ready[r], frontier) + jitter (the lowest index on
/// ties). `rng` advances by exactly ready.size() outputs. The result and
/// the engine state match the scalar loop on std::mt19937_64 bit for bit
/// (tests/oracles/kasync_selection_oracle.hpp), at a fraction of the cost.
core::RobotId select_jittered(Mt19937_64& rng, std::span<const double> ready, double frontier);

class KAsyncScheduler final : public core::Scheduler {
 public:
  struct Params {
    std::size_t k = 1;                ///< asynchrony bound (SIZE_MAX = Async)
    double min_duration = 0.2;        ///< min activity-interval length
    double max_duration = 3.0;        ///< max activity-interval length
    double min_gap = 0.05;            ///< min inactivity between own intervals
    double max_gap = 1.0;             ///< max inactivity (fairness bound)
    double xi = 1.0;                  ///< min realized move fraction
    std::uint64_t seed = 11;
    /// Indexed open-interval bookkeeping (see below). false selects the
    /// original flat scan — kept as the equivalence oracle and for the
    /// ablation bench; both paths draw RNG identically and produce
    /// bit-identical schedules.
    bool indexed_intervals = true;
    /// Robot selection strategy. The default draws a fresh tie-jitter for
    /// every robot on every proposal and takes the argmin
    /// (select_jittered): n RNG draws per proposal, the seeded stream all
    /// previously recorded schedules follow. The draws are batched and
    /// vectorized, about 4 ns per robot (n = 2048: ~8 µs per proposal,
    /// still the largest per-proposal cost at that size). true keeps the
    /// ready times in a min-heap instead (most-starved robot first,
    /// O(log n) and O(1) RNG draws per proposal). Both produce valid
    /// k-async schedules, deterministically from the seed, but along
    /// *different* streams: enabling this changes every schedule, so it is
    /// opt-in rather than a new default.
    bool heap_selection = false;
  };

  explicit KAsyncScheduler(std::size_t robot_count);
  KAsyncScheduler(std::size_t robot_count, Params params);

  std::optional<core::Activation> next(const core::SimulationView& view) override;
  [[nodiscard]] std::string_view name() const override { return "k-Async"; }

 private:
  // Legacy representation: every open interval carries a dense per-robot
  // Look-count vector — O(n) allocation + zeroing per proposal and O(n^2)
  // live memory at steady state (one n-sized vector per robot's interval).
  struct Committed {
    core::RobotId robot;
    double start, end;
    std::vector<std::size_t> looks_inside;  // per-robot Look counts in (start, end)
  };

  // Indexed representation. Two observations turn the per-proposal walks
  // into O(log n) queries:
  //
  //  * Counts are derivable from the looking robot's own history. An
  //    interval X holds >= k looks of Y exactly when Y's k-th most recent
  //    committed look lies strictly inside it — and since all of Y's looks
  //    precede the proposal being placed, "inside" reduces to "after the
  //    interval's start". So instead of incrementing a counter in every
  //    open interval containing each look (Theta(open intervals) per
  //    proposal, with the legacy dense count vectors costing O(n)
  //    allocation + zeroing each and O(n^2) live memory), each robot keeps
  //    a ring of its own last k look times.
  //  * Committed look times are non-decreasing (the Scheduler contract), so
  //    the open-interval list in creation order is sorted by start. The
  //    saturated intervals for Y are then a *prefix* of the list (start
  //    before Y's k-th recent look) found by binary search, and the
  //    postponement target is the prefix's maximum end — an append-only
  //    prefix-max array. The candidate set does not depend on the proposal
  //    time, so the legacy fixed-point loop collapses to one max lookup.
  //
  // Expired intervals are compacted away once the list exceeds twice the
  // robot count (at most one interval per robot is open, so compaction
  // halves it — amortized O(1) per proposal). Results are bit-identical to
  // the legacy scan (tests/sched/kasync_index_test.cpp) up to ties between
  // interval end times closer than 1e-12, which the continuous random
  // durations do not produce.
  struct OpenInterval {
    double start, end;
  };

  double postpone_indexed(core::RobotId best, double look);
  double postpone_legacy(core::RobotId best, double look);
  void commit_indexed(core::RobotId best, const core::Activation& a);
  void commit_legacy(core::RobotId best, const core::Activation& a);

  std::size_t n_;
  Params params_;
  Mt19937_64 rng_;
  std::vector<double> next_ready_;     // earliest allowed next look per robot
  // heap_selection: robots ordered by ready time (ties by id); a robot's
  // entry is re-pushed with its new ready time after each of its commits,
  // so entries are never stale.
  std::priority_queue<std::pair<double, core::RobotId>,
                      std::vector<std::pair<double, core::RobotId>>, std::greater<>>
      ready_heap_;
  std::vector<Committed> open_;        // legacy path: flat open-interval list
  std::vector<OpenInterval> intervals_;  // indexed path: sorted by start
  std::vector<double> prefix_max_end_;   // prefix max of intervals_[i].end
  std::vector<double> own_looks_;        // n x k ring of own committed looks
  std::vector<std::uint64_t> own_look_count_;
};

class KNestAScheduler final : public core::Scheduler {
 public:
  struct Params {
    std::size_t k = 2;     ///< nested activations per outer interval
    double xi = 1.0;
    std::uint64_t seed = 13;
  };

  explicit KNestAScheduler(std::size_t robot_count);
  KNestAScheduler(std::size_t robot_count, Params params);

  std::optional<core::Activation> next(const core::SimulationView& view) override;
  [[nodiscard]] std::string_view name() const override { return "k-NestA"; }

 private:
  void plan_round();

  std::size_t n_;
  Params params_;
  std::mt19937_64 rng_;
  std::size_t round_ = 0;
  std::deque<core::Activation> pending_;
};

class ScriptedScheduler final : public core::Scheduler {
 public:
  explicit ScriptedScheduler(std::vector<core::Activation> script);

  std::optional<core::Activation> next(const core::SimulationView& view) override;
  [[nodiscard]] std::string_view name() const override { return "scripted"; }

 private:
  std::vector<core::Activation> script_;
  std::size_t cursor_ = 0;
};

}  // namespace cohesion::sched
