// The indexed open-interval bookkeeping (own-look rings + start-sorted
// interval list with prefix-max ends) must reproduce the legacy flat scan
// bit-for-bit: both paths draw RNG identically and resolve the same
// postponement fixed point, so entire schedules — and hence entire engine
// traces — must match.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/validators.hpp"
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

std::vector<Activation> schedule_of(std::size_t n, std::size_t k, std::uint64_t seed,
                                    bool indexed, std::size_t steps) {
  KAsyncScheduler::Params p;
  p.k = k;
  p.seed = seed;
  p.indexed_intervals = indexed;
  KAsyncScheduler sched(n, p);
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

class KAsyncIndexEquivalence
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::uint64_t>> {};

TEST_P(KAsyncIndexEquivalence, SchedulesAreBitIdentical) {
  const auto [n, k, seed] = GetParam();
  // At least a few activations per robot, so the k-bound binds at every n.
  const std::size_t steps = std::max<std::size_t>(2000, 3 * n);
  const auto indexed = schedule_of(n, k, seed, true, steps);
  const auto legacy = schedule_of(n, k, seed, false, steps);
  ASSERT_EQ(indexed.size(), legacy.size());
  for (std::size_t i = 0; i < indexed.size(); ++i) {
    ASSERT_EQ(indexed[i].robot, legacy[i].robot) << "step " << i;
    ASSERT_EQ(indexed[i].t_look, legacy[i].t_look) << "step " << i;
    ASSERT_EQ(indexed[i].t_move_start, legacy[i].t_move_start) << "step " << i;
    ASSERT_EQ(indexed[i].t_move_end, legacy[i].t_move_end) << "step " << i;
    ASSERT_EQ(indexed[i].realized_fraction, legacy[i].realized_fraction) << "step " << i;
  }
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
                      std::tuple<std::size_t, std::size_t, std::uint64_t>{16, SIZE_MAX, 37}));

TEST(KAsyncIndex, UnrestrictedAsyncSkipsBookkeepingButStaysSane) {
  // With k = SIZE_MAX the k-bound can never bind, so the indexed path
  // tracks nothing at all; the schedule must still be a valid
  // non-decreasing-look Async schedule identical to the legacy one (covered
  // by the parameterized sweep above) over a long run.
  const auto sched = schedule_of(128, SIZE_MAX, 41, true, 20000);
  for (std::size_t i = 1; i < sched.size(); ++i) {
    ASSERT_GE(sched[i].t_look, sched[i - 1].t_look);
  }
}

}  // namespace
}  // namespace cohesion::sched
