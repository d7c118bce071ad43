// Certification battery for architecture contract 12: the SoA snapshot
// kernel (EngineConfig::soa_kernel) must be indistinguishable from the
// scalar filter and from the reference engine (tests/oracles/
// engine_oracle.hpp) — same seeds -> same ActivationRecords, to the bit —
// across every scheduler, error model, visibility variant and history
// mode. tools/check_soa_certification.sh re-runs this file under
// COHESION_SANITIZE=address and COHESION_NATIVE=ON (the `soa_certification`
// ctest test), so a vector-width or UB regression fails tier-1.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <vector>

#include "algo/baselines.hpp"
#include "algo/kknps.hpp"
#include "core/engine.hpp"
#include "core/trace_sink.hpp"
#include "metrics/configurations.hpp"
#include "oracles/engine_oracle.hpp"
#include "sched/asynchronous.hpp"
#include "sched/synchronous.hpp"

namespace cohesion::core {
namespace {

using geom::Vec2;
using oracles::EngineOracle;

void expect_identical_records(const std::vector<ActivationRecord>& soa,
                              const std::vector<ActivationRecord>& ref, std::uint64_t seed) {
  ASSERT_EQ(soa.size(), ref.size()) << "seed " << seed;
  for (std::size_t i = 0; i < soa.size(); ++i) {
    const ActivationRecord& s = soa[i];
    const ActivationRecord& r = ref[i];
    EXPECT_EQ(s.activation.robot, r.activation.robot) << "seed " << seed << " rec " << i;
    EXPECT_EQ(s.activation.t_look, r.activation.t_look) << "seed " << seed << " rec " << i;
    EXPECT_EQ(s.activation.t_move_start, r.activation.t_move_start)
        << "seed " << seed << " rec " << i;
    EXPECT_EQ(s.activation.t_move_end, r.activation.t_move_end)
        << "seed " << seed << " rec " << i;
    EXPECT_EQ(s.activation.realized_fraction, r.activation.realized_fraction)
        << "seed " << seed << " rec " << i;
    EXPECT_EQ(s.from, r.from) << "seed " << seed << " rec " << i;
    EXPECT_EQ(s.planned, r.planned) << "seed " << seed << " rec " << i;
    EXPECT_EQ(s.realized, r.realized) << "seed " << seed << " rec " << i;
    EXPECT_EQ(s.seen, r.seen) << "seed " << seed << " rec " << i;
  }
}

/// Schedulers under certification: FSync / SSync / k-Async / k-NestA /
/// unrestricted Async (k = SIZE_MAX), with KAsync's heap_selection axis
/// driven by a separate seed bit (it is a different but equally valid
/// seeded stream — both engines of a pair share it).
std::unique_ptr<Scheduler> make_scheduler(std::uint64_t seed, std::size_t n) {
  switch (seed % 5) {
    case 0:
      return std::make_unique<sched::FSyncScheduler>(n);
    case 1: {
      sched::SSyncScheduler::Params p;
      p.seed = seed;
      p.xi = seed % 3 == 0 ? 0.5 : 1.0;
      return std::make_unique<sched::SSyncScheduler>(n, p);
    }
    case 2: {
      sched::KAsyncScheduler::Params p;
      p.seed = seed;
      p.k = 1 + seed % 3;
      p.heap_selection = (seed / 8) % 2 == 1;
      return std::make_unique<sched::KAsyncScheduler>(n, p);
    }
    case 3: {
      sched::KNestAScheduler::Params p;
      p.seed = seed;
      p.k = 1 + seed % 2;
      return std::make_unique<sched::KNestAScheduler>(n, p);
    }
    default: {
      sched::KAsyncScheduler::Params p;
      p.seed = seed;
      p.k = std::numeric_limits<std::size_t>::max();  // Async: no bound
      p.heap_selection = (seed / 8) % 2 == 1;
      return std::make_unique<sched::KAsyncScheduler>(n, p);
    }
  }
}

std::vector<Vec2> make_initial(std::uint64_t seed, std::size_t n, double v) {
  switch (seed % 3) {
    case 0:
      return metrics::random_connected_configuration(n, 0.4 * std::sqrt(double(n)), v, seed + 1);
    case 1:
      // Spacing exactly v: every chain edge sits on the closed-ball
      // boundary — the certified borderline band gets real traffic.
      return metrics::line_configuration(n, v);
    default:
      return metrics::grid_configuration(n, 0.8 * v);
  }
}

EngineConfig make_config(std::uint64_t seed, std::size_t n, bool soa) {
  EngineConfig cfg;
  cfg.seed = seed * 7919 + 13;
  cfg.soa_kernel = soa;
  cfg.visibility.radius = 1.0;
  cfg.visibility.open_ball = (seed / 2) % 2 == 1;
  cfg.visibility.multiplicity_detection = (seed / 4) % 2 == 1;
  if (seed % 5 == 4) {
    // Heterogeneous sensing (§6.2): per-robot radii around the common V.
    std::mt19937_64 radii_rng(seed);
    std::uniform_real_distribution<double> u(0.6, 1.7);
    for (std::size_t r = 0; r < n; ++r) cfg.visibility.per_robot_radii.push_back(u(radii_rng));
  }
  switch (seed % 6) {
    case 0:
      cfg.error.random_rotation = false;  // exact perception, identity frames
      break;
    case 1:
      break;  // random rotation only
    case 2:
      cfg.error.distance_delta = 0.05;  // per-neighbour RNG draws in the Look
      break;
    case 3:
      cfg.error.skew_lambda = 0.3;
      break;
    case 4:
      cfg.error.motion_quad_coeff = 0.1;
      break;
    default:
      cfg.error.allow_reflection = true;
      cfg.error.distance_delta = 0.02;
      break;
  }
  return cfg;
}

TEST(SoaEquivalence, FiveHundredSeedDifferentialFuzz) {
  // 500 seeds x (SoA vs scalar vs reference engine) over all schedulers,
  // all error models and all visibility variants. The reference engine
  // scans every robot at its Trace position, so the two kernels cannot
  // drift together.
  const algo::KknpsAlgorithm kknps({.k = 1});
  const algo::AndoAlgorithm ando(1.0);
  for (std::uint64_t seed = 0; seed < 500; ++seed) {
    const std::size_t n = 2 + seed % 29;
    const auto initial = make_initial(seed, n, 1.0);
    const Algorithm& algorithm = seed % 2 == 0 ? static_cast<const Algorithm&>(kknps)
                                               : static_cast<const Algorithm&>(ando);

    const auto sched_soa = make_scheduler(seed, n);
    Engine soa(initial, algorithm, *sched_soa, make_config(seed, n, true));
    const auto sched_ref = make_scheduler(seed, n);
    Engine ref(initial, algorithm, *sched_ref, make_config(seed, n, false));
    const auto sched_oracle = make_scheduler(seed, n);
    EngineOracle oracle(initial, algorithm, *sched_oracle, make_config(seed, n, false));

    if (seed % 7 == 3) {  // fail-stop robots ride along unchanged
      soa.crash(n / 2);
      ref.crash(n / 2);
      oracle.crash(n / 2);
    }

    const std::size_t steps = 120;
    const std::size_t done = oracle.run(steps);
    ASSERT_EQ(soa.run(steps), done) << "seed " << seed;
    ASSERT_EQ(ref.run(steps), done) << "seed " << seed;
    expect_identical_records(soa.trace().records(), ref.trace().records(), seed);
    expect_identical_records(soa.trace().records(), oracle.trace().records(), seed);
    EXPECT_EQ(soa.current_diameter(), oracle.current_diameter()) << "seed " << seed;
    const auto cfg_soa = soa.current_configuration();
    const auto cfg_oracle = oracle.current_configuration();
    ASSERT_EQ(cfg_soa.size(), cfg_oracle.size());
    for (std::size_t r = 0; r < cfg_soa.size(); ++r) {
      EXPECT_EQ(cfg_soa[r], cfg_oracle[r]) << "seed " << seed << " robot " << r;
    }
  }
}

/// Minimal materializing sink for the bounded-memory legs: collects the
/// record stream the way Trace would, without the engine keeping history.
class CollectingSink final : public TraceSink {
 public:
  void append(const ActivationRecord& rec) override { records_.push_back(rec); }
  [[nodiscard]] const std::vector<ActivationRecord>& records() const { return records_; }

 private:
  std::vector<ActivationRecord> records_;
};

TEST(SoaEquivalence, BoundedMemoryStreamModeMatchesMemoryPath) {
  // record_history = false: the engine keeps no Trace and feeds a TeeSink
  // instead (the stream-mode shape). The SoA kernel must produce the same
  // record stream as the scalar bounded-memory engine AND as its own
  // memory-mode twin — across schedulers.
  const algo::KknpsAlgorithm kknps({.k = 2});
  for (std::uint64_t seed = 1000; seed < 1120; ++seed) {
    const std::size_t n = 3 + seed % 23;
    const auto initial = make_initial(seed, n, 1.0);

    auto soa_cfg = make_config(seed, n, true);
    auto ref_cfg = make_config(seed, n, false);

    // Bounded-memory SoA engine, records through a TeeSink fan-out.
    auto stream_cfg = soa_cfg;
    stream_cfg.record_history = false;
    const auto sched_stream = make_scheduler(seed, n);
    Engine stream(initial, kknps, *sched_stream, stream_cfg);
    CollectingSink collected;
    CollectingSink collected_copy;
    TeeSink tee({&collected, &collected_copy});
    stream.set_trace_sink(&tee);

    // Bounded-memory scalar engine.
    auto ref_stream_cfg = ref_cfg;
    ref_stream_cfg.record_history = false;
    const auto sched_ref = make_scheduler(seed, n);
    Engine ref_stream(initial, kknps, *sched_ref, ref_stream_cfg);
    CollectingSink ref_collected;
    ref_stream.set_trace_sink(&ref_collected);

    // Memory-mode SoA engine — the in-memory reference path.
    const auto sched_mem = make_scheduler(seed, n);
    Engine memory(initial, kknps, *sched_mem, soa_cfg);

    const std::size_t steps = 100;
    const std::size_t done = memory.run(steps);
    ASSERT_EQ(stream.run(steps), done) << "seed " << seed;
    ASSERT_EQ(ref_stream.run(steps), done) << "seed " << seed;
    expect_identical_records(collected.records(), memory.trace().records(), seed);
    expect_identical_records(collected.records(), ref_collected.records(), seed);
    expect_identical_records(collected.records(), collected_copy.records(), seed);
    EXPECT_EQ(stream.current_diameter(), memory.current_diameter()) << "seed " << seed;
    EXPECT_EQ(stream.end_time(), memory.end_time()) << "seed " << seed;
  }
}

TEST(SoaEquivalence, ZeroDurationAndBackwardSlackScriptsStayExact) {
  // The engine's two scheduler-slack subtleties, under the SoA kernel and
  // the scalar filter vs the reference engine: a zero-duration move must be
  // seen by later same-time Looks, and a Look within the 1e-12 ordering
  // slack *before* the frontier must be served by the scan fallback. The
  // last row Looks exactly at a neighbour's move end.
  const algo::CogAlgorithm cog;
  // Robots 4 and 5 sit out of the others' sight, for the move-end rows.
  const std::vector<Vec2> initial{{0.0, 0.0},  {0.6, 0.0},  {0.3, 0.5},
                                  {-0.4, 0.2}, {0.5, -3.5}, {0.0, -3.0}};
  const double eps = 5e-13;
  const std::vector<Activation> script{
      {0, 1.0, 1.0, 1.0, 1.0},            // instantaneous move at the Look
      {1, 1.0, 1.0, 1.0, 0.5},            // instantaneous, xi-truncated
      {2, 1.0, 1.1, 1.4, 1.0},            // ordinary move at the same Look time
      {3, 2.0 - eps, 2.0, 2.3, 1.0},      // backward Look within the slack
      {0, 2.0, 2.0, 2.0, 1.0},            // zero-duration after the fallback
      {1, 3.0, 3.1, 3.4, 1.0},
      {2, 3.0 - eps, 3.0, 3.2, 0.7},      // backward again after real motion
      {3, 4.0, 4.2, 4.6, 1.0},
      {0, 5.0, 5.0, 6.0, 1.0},            // moves until t = 6 ...
      {0, 6.0, 6.5, 7.0, 1.0},            // ... where its next Look lands
      {1, 6.0 - eps, 6.2, 6.4, 1.0},      // backward Look sees it mid-move
      {4, 7.0, 7.1, 7.5, 1.0},            // robot 4 moves toward robot 5 ...
      {5, 7.5, 7.6, 7.8, 1.0},            // ... which Looks exactly at its end
  };
  EngineConfig base;
  base.visibility.radius = 1.0;
  base.error.random_rotation = false;
  // Motion error: an end point `from + d` is always `from + (end - from)`
  // again in binary64; the perpendicular deviation makes ends that are not.
  base.error.motion_quad_coeff = 0.1;

  sched::ScriptedScheduler sched_oracle(script);
  EngineOracle oracle(initial, cog, sched_oracle, base);
  ASSERT_EQ(oracle.run(script.size()), script.size());
  // The move-end rows tell `t >= t_move_end` (the end point) from
  // `t > t_move_end` (the lerp at fraction 1) only if that lerp misses the
  // end point in binary64 and the looker sees the mover alone.
  const ActivationRecord& mover = oracle.trace().records()[11];
  EXPECT_NE(mover.from.x + (mover.realized.x - mover.from.x) * 1.0, mover.realized.x);
  EXPECT_EQ(oracle.trace().records().back().seen, 1u);
  for (const bool soa_kernel : {true, false}) {
    auto cfg = base;
    cfg.soa_kernel = soa_kernel;
    sched::ScriptedScheduler sched_engine(script);
    Engine engine(initial, cog, sched_engine, cfg);
    ASSERT_EQ(engine.run(script.size()), script.size());
    expect_identical_records(engine.trace().records(), oracle.trace().records(), soa_kernel);
  }
}

TEST(SoaEquivalence, LargeSwarmSpotCheck) {
  // One production-sized configuration: the SoA filter sees wide candidate
  // lanes (many per cell window) instead of the fuzz harness's short ones.
  const algo::KknpsAlgorithm kknps({.k = 1});
  const std::size_t n = 512;
  const auto initial =
      metrics::random_connected_configuration(n, 0.4 * std::sqrt(double(n)), 1.0, 42);

  EngineConfig cfg;
  cfg.visibility.radius = 1.0;
  sched::FSyncScheduler sched_oracle(n);
  EngineOracle oracle(initial, kknps, sched_oracle, cfg);

  cfg.soa_kernel = true;
  sched::FSyncScheduler sched_soa(n);
  Engine soa(initial, kknps, sched_soa, cfg);

  const std::size_t steps = n * 4;
  ASSERT_EQ(soa.run(steps), oracle.run(steps));
  expect_identical_records(soa.trace().records(), oracle.trace().records(), 42);
}

}  // namespace
}  // namespace cohesion::core
