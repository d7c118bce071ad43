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
#include <string_view>
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
///
/// The kernel is compiled twice from one body: a baseline x86-64 copy and,
/// on x86-64, an AVX2 copy. select_jittered runs the AVX2 copy wherever
/// the CPU has AVX2 (decided once per process) and the baseline elsewhere;
/// both are bit-identical to the reference. Nothing else selects a copy.
core::RobotId select_jittered(Mt19937_64& rng, std::span<const double> ready, double frontier);

/// The copy select_jittered runs in this process: "avx2" or "baseline".
/// Timed batch reports name it (timing.kasync_selection).
std::string_view selection_copy();

/// select_jittered's compiled copies, callable directly so tests can check
/// each against the reference on any host that can run it. The AVX2 copy
/// exists only on x86-64 and may be called only where the CPU has AVX2.
namespace detail {
core::RobotId select_jittered_baseline(Mt19937_64& rng, std::span<const double> ready,
                                       double frontier);
#if defined(__x86_64__)
core::RobotId select_jittered_avx2(Mt19937_64& rng, std::span<const double> ready,
                                   double frontier);
#endif
}  // namespace detail

class KAsyncScheduler final : public core::Scheduler {
 public:
  struct Params {
    std::size_t k = 1;                ///< asynchrony bound (SIZE_MAX = Async)
    // Timings must be finite with 0 < min_duration <= max_duration,
    // 0 <= min_gap <= max_gap and 0 < xi <= 1; the constructor throws
    // std::invalid_argument naming the offending key otherwise.
    double min_duration = 0.2;        ///< min activity-interval length
    double max_duration = 3.0;        ///< max activity-interval length
    double min_gap = 0.05;            ///< min inactivity between own intervals
    double max_gap = 1.0;             ///< max inactivity (fairness bound)
    double xi = 1.0;                  ///< min realized move fraction
    std::uint64_t seed = 11;
    /// Robot selection strategy. The default draws a fresh tie-jitter for
    /// every robot on every proposal and takes the argmin
    /// (select_jittered): n RNG draws per proposal, the seeded stream all
    /// previously recorded schedules follow. The draws are batched and
    /// vectorized, at AVX2 width where the CPU has it: about 2.4 ns per
    /// robot (n = 2048: ~4.9 µs per proposal, still the largest
    /// per-proposal cost at that size; ~3.5 ns per robot with the
    /// baseline x86-64 copy). true keeps the
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

  /// Own-look ring slots per robot: min(k, 2) at construction, doubled
  /// (capped at k) only when a Look that could still matter would be
  /// overwritten; 0 for unrestricted Async. The ring holds n x ring_stride()
  /// doubles.
  [[nodiscard]] std::size_t ring_stride() const { return stride_; }

 private:
  // Open-interval index. Two observations turn the per-proposal walk over
  // every open interval into O(log n) queries:
  //
  //  * Counts are derivable from the looking robot's own history. An
  //    interval X holds >= k looks of Y exactly when Y's k-th most recent
  //    committed look lies strictly inside it — and since all of Y's looks
  //    precede the proposal being placed, "inside" reduces to "after the
  //    interval's start". So instead of counting every look into every open
  //    interval containing it, each robot keeps a ring of its own recent
  //    look times.
  //  * Committed look times are non-decreasing (the Scheduler contract), so
  //    the open-interval list in creation order is sorted by start. The
  //    saturated intervals for Y are then a *prefix* of the list (start
  //    before Y's k-th recent look) found by binary search, and the
  //    postponement target is the prefix's maximum end — an append-only
  //    prefix-max array. The candidate set does not depend on the proposal
  //    time, so the flat scan's fixed-point loop collapses to one max
  //    lookup.
  //
  // Expired intervals are compacted away once the list exceeds twice the
  // robot count (at most one interval per robot is open, so compaction
  // halves it — amortized O(1) per proposal). Results are bit-identical to
  // the flat scan (tests/oracles/kasync_interval_oracle.hpp, checked by
  // tests/sched/kasync_index_test.cpp) up to ties between interval end
  // times closer than 1e-12, which the continuous random durations do not
  // produce.
  //
  // Ring stride. The ring keeps the last stride_ looks of each robot,
  // stride_ <= k; the slot a look goes to is (its index) mod stride_, and
  // slots never written hold -inf. The stride starts at min(k, 2), so for
  // k <= 2 the ring is the fixed n x k array and nothing below runs. For
  // larger k an n x k ring is mostly dead weight (and for k up to
  // SIZE_MAX - 1 unallocatable): a look only matters while it can exceed
  // some listed start + eps. A commit that would overwrite a look d
  // therefore first checks
  // d <= intervals_.front().start + eps: the front has the smallest listed
  // start, later listed intervals start no earlier (appends follow
  // non-decreasing looks; compaction removes, never reorders), and
  // rounding of s + eps is monotone in s, so d then fails
  // "d > c.start + eps" for every interval c listed now or later, and
  // dropping it loses nothing. Otherwise the ring first doubles (capped at
  // k), keeping each robot's last looks and filling the older slots with
  // -inf, which fail the same test as the dropped looks they stand for.
  // While stride_ < k, a robot's k-th most recent look is a dropped one,
  // so no interval is saturated and postpone() returns the look
  // unchanged. The stride is bounded by how many looks one robot commits
  // after the oldest listed start — set by the timing bounds and the
  // 2n + 16 list cap, not by k.
  struct OpenInterval {
    double start, end;
  };

  [[nodiscard]] double postpone(core::RobotId best, double look) const;
  void commit(core::RobotId best, const core::Activation& a);
  void grow_ring();

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
  std::vector<OpenInterval> intervals_;  // sorted by start
  std::vector<double> prefix_max_end_;   // prefix max of intervals_[i].end
  std::size_t stride_ = 0;               // ring slots per robot (0: Async)
  std::vector<double> own_looks_;        // n x stride_ ring of own committed looks
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
