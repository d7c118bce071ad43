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

#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <random>
#include <span>
#include <string_view>
#include <vector>

#include "core/scheduler.hpp"
#include "sched/mersenne_twister.hpp"

namespace cohesion::sched {

/// KAsyncScheduler's default robot selection. Each proposal draws, robot
/// by robot in index order, a tie jitter from `rng` as
/// std::uniform_real_distribution<double>(0, 1e-6) would, and picks the
/// robot minimizing max(ready[r], frontier) + jitter (the lowest index on
/// ties); `rng` advances by exactly n outputs. Robot and engine state match
/// that scalar loop on std::mt19937_64 bit for bit
/// (tests/oracles/kasync_selection_oracle.hpp), but only the robots that
/// can win have their output tempered and their time computed.
///
/// Why only those. Let m = max(min over r of ready[r], frontier) and
/// thr = fl(m + 1e-6). A jitter is fl(c * 1e-6) for a canonical c in
/// [0, 1), so it lies in [0, 1e-6]: rounding is monotone and fl(1e-6) is
/// 1e-6. The robot whose max(ready, frontier) is m therefore finishes at
/// fl(m + jitter) <= fl(m + 1e-6) = thr, and the winning time is at most
/// thr. A robot with ready[r] > thr has max(ready[r], frontier) =
/// ready[r] (frontier <= m <= thr) and finishes at fl(ready[r] + jitter)
/// >= ready[r] > thr, so it can neither win nor tie. The argmin over the
/// candidates {r : ready[r] <= thr}, lowest index first, is the argmin
/// over all robots. Any superset of the candidates gives the same answer.
///
/// How the candidates are kept. A robot is in exactly one of: the
/// candidate array (ids ascending, with their ready times), a min-heap on
/// (ready, id), or, between select() and reschedule(), neither (the last
/// winner). A proposal computes thr, pops every heap robot with ready <=
/// thr into the array, and runs one kernel over the array. Robots stay in
/// the array until they win: in the scheduler m never decreases (the
/// frontier is the last committed Look and only the winner's ready time
/// changes, upward), so a robot that was a candidate stays one. Called
/// with a frontier that goes back, the array is a superset, which is
/// still exact.
///
/// The kernel advances `rng` by n outputs (Mt19937_64::advance, twisting
/// every block), gathers the candidates' state words, tempers and
/// converts them and takes the minimum in lanes. It is one body compiled
/// twice: a baseline x86-64 copy and, on x86-64, an AVX2 copy; the
/// default is the AVX2 copy wherever the CPU has AVX2 (decided once per
/// process). Both are bit-identical to the reference.
class JitteredSelection {
 public:
  /// One proposal over the candidate array: advance `rng` by `robots`
  /// outputs, and return the position in ids[0, count) of the candidate
  /// with the least jittered time, the first on ties. `words` is scratch
  /// for `count` elements, `times` for `count` + 4.
  using Kernel = std::size_t (*)(Mt19937_64& rng, std::size_t robots, const core::RobotId* ids,
                                 const double* ready, std::size_t count, double frontier,
                                 std::uint64_t* words, double* times);

  /// The kernel copy this process runs by default.
  static Kernel default_kernel();

  JitteredSelection() = default;
  /// All robots (at least one), with their first ready times; none is a
  /// candidate yet.
  explicit JitteredSelection(std::span<const double> ready, Kernel kernel = default_kernel());

  /// The proposal's winner. It leaves the selection until reschedule(),
  /// which must come before the next select().
  core::RobotId select(Mt19937_64& rng, double frontier);
  /// Put the last winner back with its next ready time.
  void reschedule(core::RobotId robot, double ready);

  /// Outputs tempered so far: the summed candidate counts of every
  /// proposal. A deterministic work count (n per proposal without the
  /// candidate set).
  [[nodiscard]] std::uint64_t words_tempered() const { return words_tempered_; }

 private:
  void admit(double thr);

  Kernel kernel_ = nullptr;
  std::size_t robots_ = 0;
  std::vector<core::RobotId> ids_;  // candidates in [0, count_), ascending
  std::vector<double> ready_;       // their ready times
  std::size_t count_ = 0;
  double ready_min_ = 0.0;          // min of the candidates' ready (+inf: none)
  std::priority_queue<std::pair<double, core::RobotId>,
                      std::vector<std::pair<double, core::RobotId>>, std::greater<>>
      waiting_;  // the other robots, earliest ready first
  std::vector<std::pair<core::RobotId, double>> admitted_;  // admit() scratch
  std::vector<std::uint64_t> words_;                       // kernel scratch
  std::vector<double> times_;
  std::uint64_t words_tempered_ = 0;
};

/// The copy JitteredSelection runs in this process: "avx2" or "baseline".
/// Timed batch reports name it (timing.kasync_selection).
std::string_view selection_copy();

/// JitteredSelection's compiled kernel copies, callable directly so tests
/// can check each against the reference on any host that can run it. The
/// AVX2 copy exists only on x86-64 and may be called only where the CPU
/// has AVX2.
namespace detail {
std::size_t select_candidate_baseline(Mt19937_64& rng, std::size_t robots,
                                      const core::RobotId* ids, const double* ready,
                                      std::size_t count, double frontier, std::uint64_t* words,
                                      double* times);
#if defined(__x86_64__)
std::size_t select_candidate_avx2(Mt19937_64& rng, std::size_t robots, const core::RobotId* ids,
                                  const double* ready, std::size_t count, double frontier,
                                  std::uint64_t* words, double* times);
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
    /// (JitteredSelection): n RNG draws per proposal, the seeded stream all
    /// previously recorded schedules follow. Every draw advances the
    /// engine, but only the robots that can win are tempered and compared
    /// (async_stream, n = 2048: ~514 of them, ~3 µs per proposal, still
    /// the largest per-proposal cost at that size). true keeps the
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

  /// RNG outputs the default selection has tempered so far
  /// (JitteredSelection::words_tempered; 0 under heap_selection).
  [[nodiscard]] std::uint64_t words_tempered() const { return selection_.words_tempered(); }

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
  JitteredSelection selection_;        // the default selection's candidate set
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
