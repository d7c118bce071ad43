// The interval index (own-look rings + start-sorted interval list with
// prefix-max ends) must reproduce the flat-scan reference
// (oracles/kasync_interval_oracle.hpp) bit for bit: both draw RNG
// identically and resolve the same postponement fixed point, so entire
// schedules — and hence entire engine traces — must match.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "oracles/kasync_interval_oracle.hpp"
#include "sched/asynchronous.hpp"

namespace cohesion::sched {
namespace {

using core::Activation;

struct InertView final : core::SimulationView {
  std::size_t n = 0;
  core::Time front = 0.0;
  [[nodiscard]] std::size_t robot_count() const override { return n; }
  [[nodiscard]] core::Time busy_until(core::RobotId) const override { return 0.0; }
  [[nodiscard]] core::Time frontier() const override { return front; }
  [[nodiscard]] geom::Vec2 position(core::RobotId, core::Time) const override { return {}; }
  [[nodiscard]] std::size_t activations_of(core::RobotId) const override { return 0; }
};

std::vector<Activation> schedule_of(core::Scheduler& sched, std::size_t n, std::size_t steps) {
  InertView view;
  view.n = n;
  std::vector<Activation> out;
  out.reserve(steps);
  for (std::size_t i = 0; i < steps; ++i) {
    const auto a = sched.next(view);
    out.push_back(*a);
    view.front = a->t_look;  // the engine's frontier is the last look time
  }
  return out;
}

void expect_bit_identical(const std::vector<Activation>& indexed,
                          const std::vector<Activation>& scan) {
  ASSERT_EQ(indexed.size(), scan.size());
  for (std::size_t i = 0; i < indexed.size(); ++i) {
    ASSERT_EQ(indexed[i].robot, scan[i].robot) << "step " << i;
    ASSERT_EQ(indexed[i].t_look, scan[i].t_look) << "step " << i;
    ASSERT_EQ(indexed[i].t_move_start, scan[i].t_move_start) << "step " << i;
    ASSERT_EQ(indexed[i].t_move_end, scan[i].t_move_end) << "step " << i;
    ASSERT_EQ(indexed[i].realized_fraction, scan[i].realized_fraction) << "step " << i;
  }
}

class KAsyncIndexEquivalence
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::uint64_t>> {};

TEST_P(KAsyncIndexEquivalence, SchedulesAreBitIdentical) {
  const auto [n, k, seed] = GetParam();
  KAsyncScheduler::Params p;
  p.k = k;
  p.seed = seed;
  KAsyncScheduler indexed(n, p);
  oracles::KAsyncIntervalScan scan(n, p);
  // The ring starts at min(k, 2) slots per robot whatever k is: no n x k
  // allocation for huge finite k.
  EXPECT_EQ(indexed.ring_stride(), k == SIZE_MAX ? 0 : std::min<std::size_t>(k, 2));
  // At least a few activations per robot. At the default timings the
  // bound binds for k <= 2 only (the k = 3 and 8 rows postpone nothing);
  // RingGrowthMatchesFlatScan binds k = 3..5.
  const std::size_t steps = std::max<std::size_t>(2000, 3 * n);
  expect_bit_identical(schedule_of(indexed, n, steps), schedule_of(scan, n, steps));
  // Growth follows the looks a robot commits after the oldest listed start
  // (at most 8 here), never k.
  EXPECT_LE(indexed.ring_stride(), 16u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KAsyncIndexEquivalence,
    ::testing::Values(std::tuple<std::size_t, std::size_t, std::uint64_t>{3, 1, 11},
                      std::tuple<std::size_t, std::size_t, std::uint64_t>{6, 2, 17},
                      std::tuple<std::size_t, std::size_t, std::uint64_t>{16, 3, 23},
                      std::tuple<std::size_t, std::size_t, std::uint64_t>{16, 8, 29},
                      std::tuple<std::size_t, std::size_t, std::uint64_t>{64, 2, 31},
                      // n > 312: every proposal's selection draws cross a
                      // block of the engine's 312-word state
                      std::tuple<std::size_t, std::size_t, std::uint64_t>{400, 2, 43},
                      std::tuple<std::size_t, std::size_t, std::uint64_t>{2048, 2, 47},
                      // unrestricted Async: postponement disabled, pruning only
                      std::tuple<std::size_t, std::size_t, std::uint64_t>{16, SIZE_MAX, 37},
                      // huge finite k: an n x k ring would take 256 MiB,
                      // or be unallocatable
                      std::tuple<std::size_t, std::size_t, std::uint64_t>{64, std::size_t{1} << 19,
                                                                          53},
                      std::tuple<std::size_t, std::size_t, std::uint64_t>{64, SIZE_MAX - 1, 59}));

TEST(KAsyncIndex, RingGrowthMatchesFlatScan) {
  // Durations spanning four decades with short gaps: robots with short
  // cycles commit several looks inside one long interval, so every run
  // grows the ring past its initial 2 slots, early. At k = 3..5 the bound
  // then binds (k = 5 about once in 4000 proposals), often right after a
  // growth, which checks that growing keeps each robot's recent looks. At
  // k = 40 it never binds under uniform timings, and the ring grows only as
  // far as the looks that may still matter.
  for (const std::size_t k : {3u, 4u, 5u, 40u}) {
    std::size_t postponed = 0;
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
      SCOPED_TRACE(::testing::Message() << "k = " << k << ", seed = " << seed);
      KAsyncScheduler::Params p;
      p.k = k;
      p.seed = seed;
      p.min_duration = 1e-3;
      p.min_gap = 1e-3;
      p.max_duration = 10.0;
      const std::size_t n = 4;
      KAsyncScheduler indexed(n, p);
      oracles::KAsyncIntervalScan scan(n, p);
      ASSERT_EQ(indexed.ring_stride(), 2u);
      const std::size_t steps = 1000;
      expect_bit_identical(schedule_of(indexed, n, steps), schedule_of(scan, n, steps));
      if (HasFatalFailure()) return;
      EXPECT_GT(indexed.ring_stride(), 2u);
      EXPECT_LE(indexed.ring_stride(), k);
      postponed += scan.postponements();
    }
    if (k <= 5) EXPECT_GT(postponed, 0u) << "k = " << k;
  }
}

TEST(KAsyncIndex, UnrestrictedAsyncSkipsBookkeepingButStaysSane) {
  // With k = SIZE_MAX the k-bound can never bind, so the index tracks
  // nothing at all; the schedule must still be a valid non-decreasing-look
  // Async schedule identical to the flat scan's (covered by the
  // parameterized sweep above) over a long run.
  KAsyncScheduler::Params p;
  p.k = SIZE_MAX;
  p.seed = 41;
  KAsyncScheduler sched(128, p);
  EXPECT_EQ(sched.ring_stride(), 0u);
  const auto schedule = schedule_of(sched, 128, 20000);
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    ASSERT_GE(schedule[i].t_look, schedule[i - 1].t_look);
  }
}

}  // namespace
}  // namespace cohesion::sched
