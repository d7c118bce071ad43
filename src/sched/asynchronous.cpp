#include "sched/asynchronous.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace cohesion::sched {

using core::Activation;
using core::RobotId;
using core::SimulationView;

namespace {
/// Interval-membership slack of the k-bound (the flat-scan reference uses
/// the same).
constexpr double kIntervalEps = 1e-12;

/// select_jittered's one kernel body, compiled into both entry points
/// below. One engine block at a time: draw the words in bulk, turn them
/// into jittered times, take the chunk's minimum, and look up its first
/// index only when it beats the best so far. GCC vectorizes the time loop
/// (this file is built with -fno-trapping-math so the max and the fixup
/// if-convert); the minimum runs as kLanes independent chains instead of
/// one compare-and-branch per robot. Each time is computed as the
/// reference loop computes it: max(ready, frontier) + (canonical *
/// (1e-6 - 0.0) + 0.0), the bracket being uniform_real_distribution's
/// affine map. The outer addition is never fused into an FMA: strict
/// -std=c++20 (no GNU extensions) implies -ffp-contract=off, even under
/// -march=native or target("avx2"). Every step is an integer operation or
/// an IEEE max, * or +, so each entry point returns the same robot and
/// leaves the same engine state whatever vector width it runs at.
[[gnu::always_inline]] inline RobotId select_jittered_body(Mt19937_64& rng,
                                                           std::span<const double> ready,
                                                           double frontier) {
  constexpr std::size_t kChunk = Mt19937_64::state_size;
  constexpr std::size_t kLanes = 4;
  static_assert(kChunk % kLanes == 0);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Left uninitialized on purpose: each chunk writes every element it
  // reads first, and zeroing 5 KB per call would cost small swarms more
  // than the selection itself.
  std::uint64_t words[kChunk];
  double times[kChunk];
  double best_t = kInf;
  RobotId best = 0;
  for (std::size_t lo = 0; lo < ready.size(); lo += kChunk) {
    const std::size_t len = std::min(kChunk, ready.size() - lo);
    rng.generate(words, len);
    const double* base = ready.data() + lo;
    for (std::size_t i = 0; i < len; ++i) {
      times[i] = std::max(base[i], frontier) + (canonical_double(words[i]) * 1e-6 + 0.0);
    }
    const std::size_t padded = (len + kLanes - 1) / kLanes * kLanes;
    std::fill(times + len, times + padded, kInf);
    double lane_min[kLanes] = {kInf, kInf, kInf, kInf};
    for (std::size_t i = 0; i < padded; i += kLanes) {
      for (std::size_t l = 0; l < kLanes; ++l) lane_min[l] = std::min(lane_min[l], times[i + l]);
    }
    // Strict < keeps an earlier chunk's minimum on ties; std::find takes
    // the first index within the chunk. Together: the lowest index wins.
    const double chunk_min = *std::min_element(lane_min, lane_min + kLanes);
    if (chunk_min < best_t) {
      best_t = chunk_min;
      best = lo + static_cast<std::size_t>(std::find(times, times + len, chunk_min) - times);
    }
  }
  return best;
}

/// The AVX2 copy runs wherever the CPU has AVX2; checked once per process.
bool use_avx2() {
#if defined(__x86_64__)
  static const bool avx2 = __builtin_cpu_supports("avx2") != 0;
  return avx2;
#else
  return false;
#endif
}
}  // namespace

// Both entry points are flattened: Mt19937_64::generate's twist and temper
// and canonical_double inline into each, so the AVX2 copy runs all of them
// at its width rather than calling the baseline-width twist.
namespace detail {
[[gnu::noinline, gnu::flatten]] RobotId select_jittered_baseline(Mt19937_64& rng,
                                                                  std::span<const double> ready,
                                                                  double frontier) {
  return select_jittered_body(rng, ready, frontier);
}

#if defined(__x86_64__)
[[gnu::noinline, gnu::flatten, gnu::target("avx2")]] RobotId select_jittered_avx2(
    Mt19937_64& rng, std::span<const double> ready, double frontier) {
  return select_jittered_body(rng, ready, frontier);
}
#endif
}  // namespace detail

std::string_view selection_copy() { return use_avx2() ? "avx2" : "baseline"; }

RobotId select_jittered(Mt19937_64& rng, std::span<const double> ready, double frontier) {
#if defined(__x86_64__)
  if (use_avx2()) return detail::select_jittered_avx2(rng, ready, frontier);
#endif
  return detail::select_jittered_baseline(rng, ready, frontier);
}

KAsyncScheduler::KAsyncScheduler(std::size_t robot_count) : KAsyncScheduler(robot_count, Params{}) {}

namespace {
/// Finite timings with 0 < min_duration <= max_duration, 0 <= min_gap <=
/// max_gap and 0 < xi <= 1; anything else would hand an inverted range to
/// std::uniform_real_distribution (undefined) or surface deep in the
/// engine as a look inside the robot's own interval.
void check_timing(const KAsyncScheduler::Params& p) {
  const auto require = [](bool ok, const char* key, double value, const char* rule) {
    if (ok) return;
    std::ostringstream msg;
    msg << "KAsyncScheduler: \"" << key << "\" = " << value << " is invalid (need " << rule << ")";
    throw std::invalid_argument(msg.str());
  };
  require(std::isfinite(p.min_duration) && p.min_duration > 0.0, "min_duration", p.min_duration,
          "a finite value > 0");
  require(std::isfinite(p.max_duration) && p.max_duration >= p.min_duration, "max_duration",
          p.max_duration, "a finite value >= min_duration");
  require(std::isfinite(p.min_gap) && p.min_gap >= 0.0, "min_gap", p.min_gap,
          "a finite value >= 0");
  require(std::isfinite(p.max_gap) && p.max_gap >= p.min_gap, "max_gap", p.max_gap,
          "a finite value >= min_gap");
  require(p.xi > 0.0 && p.xi <= 1.0, "xi", p.xi, "0 < xi <= 1");
}
}  // namespace

KAsyncScheduler::KAsyncScheduler(std::size_t robot_count, Params params)
    : n_(robot_count), params_(params), rng_(params.seed), next_ready_(robot_count, 0.0) {
  if (robot_count == 0) throw std::invalid_argument("KAsyncScheduler: no robots");
  if (params.k == 0) throw std::invalid_argument("KAsyncScheduler: k must be >= 1");
  check_timing(params);
  if (params_.k != static_cast<std::size_t>(-1)) {
    // k <= 2 (every benchmark spec) keeps the fixed n x k ring. Larger k
    // grow on demand, and the bound rarely binds there at all: with
    // durations in [1e-3, 10], k = 5 postponed about one proposal in 7000
    // and k >= 7 none in 400,000.
    constexpr std::size_t kInitialStride = 2;
    stride_ = std::min(params_.k, kInitialStride);
    own_looks_.assign(n_ * stride_, -std::numeric_limits<double>::infinity());
    own_look_count_.resize(n_, 0);
    intervals_.reserve(2 * n_ + 17);
    prefix_max_end_.reserve(2 * n_ + 17);
  }
  // Stagger initial looks so intervals overlap from the start.
  std::uniform_real_distribution<double> jitter(0.0, params.min_duration);
  for (auto& t : next_ready_) t = jitter(rng_);
  if (params_.heap_selection) {
    for (RobotId r = 0; r < n_; ++r) ready_heap_.emplace(next_ready_[r], r);
  }
}

double KAsyncScheduler::postpone(RobotId best, double look) const {
  const std::size_t k = params_.k;
  // Fewer than k looks ever committed, or a ring still below k slots
  // (whose k-th recent look was dropped as unable to saturate anything).
  if (stride_ < k || own_look_count_[best] < k) return look;
  // The oldest of the robot's k most recent looks sits in the ring slot the
  // next look will overwrite.
  const double kth_recent = own_looks_[best * k + own_look_count_[best] % k];
  // An interval is saturated for this robot iff its start admits all k
  // recent looks (start + eps < kth_recent, the same predicate the flat
  // scan applies look by look). Starts are non-decreasing, so the
  // candidates are a prefix.
  const auto split = std::partition_point(
      intervals_.begin(), intervals_.end(),
      [&](const OpenInterval& c) { return kth_recent > c.start + kIntervalEps; });
  if (split == intervals_.begin()) return look;
  const double max_end = prefix_max_end_[static_cast<std::size_t>(split - intervals_.begin()) - 1];
  // One step settles the flat scan's fixed point: the candidate set is
  // look-independent, and after jumping to the max end no candidate can
  // still contain the look. Expired candidates have ends at or below the
  // look and fail the same containment test they fail in the flat scan.
  if (look < max_end - kIntervalEps) look = max_end;
  return look;
}

void KAsyncScheduler::grow_ring() {
  const std::size_t old = stride_;
  stride_ = params_.k / 2 < old ? params_.k : 2 * old;
  std::vector<double> grown(n_ * stride_, -std::numeric_limits<double>::infinity());
  for (RobotId r = 0; r < n_; ++r) {
    const std::uint64_t count = own_look_count_[r];
    for (std::uint64_t i = count - std::min<std::uint64_t>(count, old); i < count; ++i) {
      grown[r * stride_ + i % stride_] = own_looks_[r * old + i % old];
    }
  }
  own_looks_.swap(grown);
}

void KAsyncScheduler::commit(RobotId best, const Activation& a) {
  if (stride_ == 0) return;  // unrestricted: nothing to track
  // Record the robot's own committed look in its ring, growing the ring
  // first if the look it would overwrite may still saturate an interval
  // (header comment).
  if (stride_ < params_.k && !intervals_.empty() &&
      own_looks_[best * stride_ + own_look_count_[best] % stride_] >
          intervals_.front().start + kIntervalEps) {
    grow_ring();
  }
  own_looks_[best * stride_ + own_look_count_[best] % stride_] = a.t_look;
  ++own_look_count_[best];

  // Amortized compaction: drop expired intervals once the list exceeds
  // twice the robot count. At most one interval per robot is open, so this
  // at least halves the list.
  if (intervals_.size() >= 2 * n_ + 16) {
    const double look = a.t_look;
    std::size_t w = 0;
    for (const OpenInterval& c : intervals_) {
      if (c.end > look + kIntervalEps) intervals_[w++] = c;
    }
    intervals_.resize(w);
    prefix_max_end_.resize(w);
    double running = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < w; ++i) {
      running = std::max(running, intervals_[i].end);
      prefix_max_end_[i] = running;
    }
  }
  // Append the new interval; starts arrive non-decreasing, so creation
  // order keeps the list sorted and the prefix max extends in O(1).
  intervals_.push_back({a.t_look, a.t_move_end});
  prefix_max_end_.push_back(prefix_max_end_.empty()
                                ? a.t_move_end
                                : std::max(prefix_max_end_.back(), a.t_move_end));
}

std::optional<Activation> KAsyncScheduler::next(const SimulationView& view) {
  // Pick the robot with the earliest permissible look time (jittered to vary
  // the interleaving), then enforce the k-bound by postponement. The
  // interval index draws no RNG, so the schedule matches the flat-scan
  // reference draw for draw (tests/sched/kasync_index_test.cpp).
  const double frontier = view.frontier();
  RobotId best = 0;
  if (params_.heap_selection) {
    // Most-starved robot first: ready times only change for the committed
    // robot (re-pushed below), so the heap top is always current.
    best = ready_heap_.top().second;
    ready_heap_.pop();
  } else {
    best = select_jittered(rng_, next_ready_, frontier);
  }

  double look = std::max(next_ready_[best], frontier);
  if (params_.k != static_cast<std::size_t>(-1)) look = postpone(best, look);

  std::uniform_real_distribution<double> dur(params_.min_duration, params_.max_duration);
  std::uniform_real_distribution<double> gap(params_.min_gap, params_.max_gap);
  std::uniform_real_distribution<double> compute_frac(0.1, 0.5);
  std::uniform_real_distribution<double> frac(params_.xi, 1.0);

  const double duration = dur(rng_);
  Activation a;
  a.robot = best;
  a.t_look = look;
  a.t_move_start = look + compute_frac(rng_) * duration;
  a.t_move_end = look + duration;
  a.realized_fraction = params_.xi >= 1.0 ? 1.0 : frac(rng_);

  commit(best, a);

  next_ready_[best] = a.t_move_end + gap(rng_);
  if (params_.heap_selection) ready_heap_.emplace(next_ready_[best], best);
  return a;
}

KNestAScheduler::KNestAScheduler(std::size_t robot_count) : KNestAScheduler(robot_count, Params{}) {}

KNestAScheduler::KNestAScheduler(std::size_t robot_count, Params params)
    : n_(robot_count), params_(params), rng_(params.seed) {
  if (robot_count == 0) throw std::invalid_argument("KNestAScheduler: no robots");
  if (params.k == 0) throw std::invalid_argument("KNestAScheduler: k must be >= 1");
  plan_round();
}

void KNestAScheduler::plan_round() {
  const double t0 = static_cast<double>(round_);
  std::vector<RobotId> order(n_);
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng_);
  std::uniform_real_distribution<double> frac(params_.xi, 1.0);

  std::vector<Activation> acts;
  const std::size_t pairs = n_ / 2;
  // Outer robots (and a possible leftover) span the whole round; equal
  // intervals are mutually nested.
  auto outer_activation = [&](RobotId r) {
    Activation a;
    a.robot = r;
    a.t_look = t0;
    a.t_move_start = t0 + 0.4;
    a.t_move_end = t0 + 1.0;
    a.realized_fraction = params_.xi >= 1.0 ? 1.0 : frac(rng_);
    return a;
  };
  for (std::size_t p = 0; p < pairs; ++p) acts.push_back(outer_activation(order[2 * p]));
  if (n_ % 2 == 1) acts.push_back(outer_activation(order[n_ - 1]));

  // Inner robots: k sequential activations inside a pair-private sub-slot of
  // (t0 + 0.05, t0 + 0.95); sub-slots are pairwise disjoint so all inner
  // intervals are disjoint from each other and strictly nested in every
  // outer interval.
  if (pairs > 0) {
    const double usable = 0.9;
    const double slot = usable / static_cast<double>(pairs);
    for (std::size_t p = 0; p < pairs; ++p) {
      const RobotId inner = order[2 * p + 1];
      const double s0 = t0 + 0.05 + slot * static_cast<double>(p);
      const double each = slot / static_cast<double>(params_.k);
      for (std::size_t i = 0; i < params_.k; ++i) {
        Activation a;
        a.robot = inner;
        a.t_look = s0 + each * static_cast<double>(i) + 0.05 * each;
        a.t_move_start = a.t_look + 0.3 * each;
        a.t_move_end = a.t_look + 0.8 * each;
        a.realized_fraction = params_.xi >= 1.0 ? 1.0 : frac(rng_);
        acts.push_back(a);
      }
    }
  }

  std::sort(acts.begin(), acts.end(),
            [](const Activation& a, const Activation& b) { return a.t_look < b.t_look; });
  pending_.assign(acts.begin(), acts.end());
  ++round_;
}

std::optional<Activation> KNestAScheduler::next(const SimulationView&) {
  if (pending_.empty()) plan_round();
  Activation a = pending_.front();
  pending_.pop_front();
  return a;
}

ScriptedScheduler::ScriptedScheduler(std::vector<Activation> script) : script_(std::move(script)) {
  // Enforce the same ordering contract the engine does: each look may
  // regress below the *previous* look (the engine's frontier is the last
  // committed Look time, not a running max) only within core::kLookSlack.
  // (The Section-7 constructions write exactly-sorted scripts; the slack
  // exists so adversarial scripts can exercise the engine's tolerance too.)
  double frontier = -std::numeric_limits<double>::infinity();
  for (const Activation& a : script_) {
    if (a.t_look + core::kLookSlack < frontier) {
      throw std::invalid_argument("ScriptedScheduler: script must be sorted by t_look");
    }
    frontier = a.t_look;
  }
}

std::optional<Activation> ScriptedScheduler::next(const SimulationView&) {
  if (cursor_ == script_.size()) return std::nullopt;
  return script_[cursor_++];
}

}  // namespace cohesion::sched
