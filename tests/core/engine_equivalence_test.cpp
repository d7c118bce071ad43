// The engine's incremental snapshot feed must be indistinguishable from the
// brute-force reference engine (tests/oracles/engine_oracle.hpp): same seeds
// -> same ActivationRecords, to the bit. This holds because both examine the
// same visible set through the same predicate and draw RNG in the same
// (ascending-id) order; these tests sweep schedulers, error models,
// visibility variants and history modes to pin that down. Part of the
// certification battery of architecture contract 12
// (tools/check_kernel_certification.sh), so the engine's certified
// visibility band is also checked under ASan and -march=native.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <string_view>
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

void expect_identical_records(const std::vector<ActivationRecord>& got,
                              const std::vector<ActivationRecord>& want, std::uint64_t seed) {
  ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const ActivationRecord& g = got[i];
    const ActivationRecord& b = want[i];
    EXPECT_EQ(g.activation.robot, b.activation.robot) << "seed " << seed << " rec " << i;
    EXPECT_EQ(g.activation.t_look, b.activation.t_look) << "seed " << seed << " rec " << i;
    EXPECT_EQ(g.activation.t_move_start, b.activation.t_move_start)
        << "seed " << seed << " rec " << i;
    EXPECT_EQ(g.activation.t_move_end, b.activation.t_move_end)
        << "seed " << seed << " rec " << i;
    EXPECT_EQ(g.activation.realized_fraction, b.activation.realized_fraction)
        << "seed " << seed << " rec " << i;
    EXPECT_EQ(g.from, b.from) << "seed " << seed << " rec " << i;
    EXPECT_EQ(g.planned, b.planned) << "seed " << seed << " rec " << i;
    EXPECT_EQ(g.realized, b.realized) << "seed " << seed << " rec " << i;
    EXPECT_EQ(g.seen, b.seen) << "seed " << seed << " rec " << i;
  }
}

void expect_identical_traces(const Trace& got, const Trace& want, std::uint64_t seed) {
  expect_identical_records(got.records(), want.records(), seed);
}

/// FSync / SSync / k-Async / k-NestA / unrestricted Async (k = SIZE_MAX),
/// with KAsync's heap_selection axis driven by a separate seed bit (a
/// different but equally valid seeded stream — both engines of a pair share
/// it).
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

EngineConfig make_config(std::uint64_t seed, std::size_t n) {
  EngineConfig cfg;
  cfg.seed = seed * 7919 + 13;
  cfg.visibility.radius = 1.0;
  cfg.visibility.open_ball = (seed / 2) % 2 == 1;
  cfg.visibility.multiplicity_detection = (seed / 4) % 2 == 1;
  if ((seed / 5) % 5 == 4) {
    // Heterogeneous sensing (§6.2): per-robot radii around the common V.
    // Keyed on seed / 5 so that every make_scheduler choice (seed % 5)
    // runs with per-robot radii on some seeds.
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

/// One differential run: the engine against the reference engine on the
/// seed's scheduler, error model, visibility variant, algorithm and initial
/// configuration. Both must commit bit-identical traces. The reference scans
/// every robot at its Trace position with the raw predicate, so it cannot
/// drift with the engine. Adds to `shared` the engine's Looks that reused
/// their instant's co-location certificate.
void expect_engine_matches_oracle(std::uint64_t seed, std::size_t& shared) {
  const algo::KknpsAlgorithm kknps({.k = 1});
  const algo::AndoAlgorithm ando(1.0);
  const std::size_t n = 2 + seed % 31;
  const auto initial = make_initial(seed, n, 1.0);
  const Algorithm& algorithm =
      seed % 2 == 0 ? static_cast<const Algorithm&>(kknps) : static_cast<const Algorithm&>(ando);

  const auto sched_engine = make_scheduler(seed, n);
  Engine engine(initial, algorithm, *sched_engine, make_config(seed, n));
  const auto sched_oracle = make_scheduler(seed, n);
  EngineOracle oracle(initial, algorithm, *sched_oracle, make_config(seed, n));

  if (seed % 7 == 3) {  // fail-stop robots ride along unchanged
    engine.crash(n / 2);
    oracle.crash(n / 2);
  }

  const std::size_t steps = 150;
  std::size_t done = 0;
  for (; done < steps && engine.step(); ++done) shared += engine.look_colocation_shared() ? 1 : 0;
  ASSERT_EQ(done, oracle.run(steps)) << "seed " << seed;
  expect_identical_traces(engine.trace(), oracle.trace(), seed);
  EXPECT_EQ(engine.current_diameter(), oracle.current_diameter()) << "seed " << seed;
  const auto cfg_engine = engine.current_configuration();
  const auto cfg_oracle = oracle.current_configuration();
  ASSERT_EQ(cfg_engine.size(), cfg_oracle.size());
  for (std::size_t r = 0; r < cfg_engine.size(); ++r) {
    EXPECT_EQ(cfg_engine[r], cfg_oracle[r]) << "seed " << seed << " robot " << r;
  }
}

TEST(EngineEquivalence, AllIndexModesProduceIdenticalTraces) {
  // Seeds 0-159 of the differential generator: randomized schedulers
  // (FSync / SSync / k-Async / k-NestA / Async), error models, visibility
  // variants and initial configurations.
  std::size_t shared = 0;
  for (std::uint64_t seed = 0; seed < 160; ++seed) expect_engine_matches_oracle(seed, shared);
}

TEST(EngineEquivalence, FiveHundredSeedDifferentialFuzz) {
  // The next 500 seeds of the same generator, disjoint from the ones above.
  // Looks at a shared instant reuse its co-location certificate (9,463 of
  // the 75,000), so the fuzz covers that path too.
  std::size_t shared = 0;
  for (std::uint64_t seed = 160; seed < 660; ++seed) expect_engine_matches_oracle(seed, shared);
  EXPECT_GT(shared, 5000u);
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

TEST(EngineEquivalence, BoundedMemoryStreamModeMatchesMemoryPath) {
  // record_history = false: the engine keeps no Trace and feeds a TeeSink
  // instead (the stream-mode shape). Its record stream must equal the
  // memory-mode engine's and the reference engine's, across schedulers.
  const algo::KknpsAlgorithm kknps({.k = 2});
  for (std::uint64_t seed = 1000; seed < 1120; ++seed) {
    const std::size_t n = 3 + seed % 23;
    const auto initial = make_initial(seed, n, 1.0);
    const EngineConfig cfg = make_config(seed, n);

    auto stream_cfg = cfg;
    stream_cfg.record_history = false;
    const auto sched_stream = make_scheduler(seed, n);
    Engine stream(initial, kknps, *sched_stream, stream_cfg);
    CollectingSink collected;
    CollectingSink collected_copy;
    TeeSink tee({&collected, &collected_copy});
    stream.set_trace_sink(&tee);

    const auto sched_mem = make_scheduler(seed, n);
    Engine memory(initial, kknps, *sched_mem, cfg);
    const auto sched_oracle = make_scheduler(seed, n);
    EngineOracle oracle(initial, kknps, *sched_oracle, cfg);

    const std::size_t steps = 100;
    const std::size_t done = oracle.run(steps);
    ASSERT_EQ(stream.run(steps), done) << "seed " << seed;
    ASSERT_EQ(memory.run(steps), done) << "seed " << seed;
    expect_identical_records(collected.records(), memory.trace().records(), seed);
    expect_identical_records(collected.records(), oracle.trace().records(), seed);
    expect_identical_records(collected.records(), collected_copy.records(), seed);
    EXPECT_EQ(stream.current_diameter(), memory.current_diameter()) << "seed " << seed;
    EXPECT_EQ(stream.end_time(), memory.end_time()) << "seed " << seed;
  }
}

TEST(EngineEquivalence, LargeSwarmSpotCheck) {
  // One production-sized configuration: the index crosses many cells and
  // re-buckets one robot per commit across whole synchronous rounds.
  const algo::KknpsAlgorithm kknps({.k = 1});
  const std::size_t n = 512;
  const auto initial =
      metrics::random_connected_configuration(n, 0.4 * std::sqrt(double(n)), 1.0, 42);
  EngineConfig cfg;
  cfg.visibility.radius = 1.0;

  sched::FSyncScheduler sched_engine(n);
  Engine engine(initial, kknps, sched_engine, cfg);
  sched::FSyncScheduler sched_oracle(n);
  EngineOracle oracle(initial, kknps, sched_oracle, cfg);

  const std::size_t steps = n * 4;
  ASSERT_EQ(engine.run(steps), oracle.run(steps));
  expect_identical_traces(engine.trace(), oracle.trace(), 42);
  EXPECT_EQ(engine.current_diameter(), oracle.current_diameter());
}

TEST(EngineEquivalence, LargeSwarmAsyncSpotCheck) {
  // The production-sized swarm under unrestricted Async with heap selection
  // and distance noise: each Look filters wide candidate windows while the
  // index re-buckets one robot at a time between out-of-order commits.
  const algo::KknpsAlgorithm kknps({.k = 1});
  const std::size_t n = 512;
  const auto initial =
      metrics::random_connected_configuration(n, 0.4 * std::sqrt(double(n)), 1.0, 43);
  EngineConfig cfg;
  cfg.seed = 43;
  cfg.visibility.radius = 1.0;
  cfg.visibility.multiplicity_detection = true;
  cfg.error.distance_delta = 0.05;
  sched::KAsyncScheduler::Params p;
  p.seed = 43;
  p.k = std::numeric_limits<std::size_t>::max();
  p.heap_selection = true;

  sched::KAsyncScheduler sched_engine(n, p);
  Engine engine(initial, kknps, sched_engine, cfg);
  sched::KAsyncScheduler sched_oracle(n, p);
  EngineOracle oracle(initial, kknps, sched_oracle, cfg);

  const std::size_t steps = n * 4;
  ASSERT_EQ(oracle.run(steps), steps);
  ASSERT_EQ(engine.run(steps), steps);
  expect_identical_traces(engine.trace(), oracle.trace(), 43);
  EXPECT_EQ(engine.current_diameter(), oracle.current_diameter());
}

TEST(EngineEquivalence, DenseGridFSyncMatchesAllPairsColocation) {
  // The dense Look: n = 256 on a 0.05 grid with V = 1, so a Look sees up to
  // 255 neighbours and the engine's co-location is the coarse-cell
  // certificate, checked against the reference's all-pairs rules with and
  // without multiplicity detection and distance noise. A second grid
  // stacks 16 robots on occupied sites, so its Looks take the hash path.
  // Unrotated frames keep the lattice's offsets axis-aligned, near the
  // certificate's power-of-two cell edges, where it compares the cells
  // across them. Every Look's window holds every occupied grid cell, so
  // none walks a cell list.
  const algo::KknpsAlgorithm kknps({.k = 1});
  const std::size_t n = 256;
  const auto grid = metrics::grid_configuration(n, 0.05);
  auto stacked = grid;
  for (std::size_t i = 0; i < 16; ++i) stacked[240 + i] = grid[13 * i];
  for (std::uint64_t variant = 0; variant < 16; ++variant) {
    const auto& initial = variant & 4 ? stacked : grid;
    EngineConfig cfg;
    cfg.visibility.radius = 1.0;
    cfg.visibility.multiplicity_detection = (variant & 2) != 0;
    cfg.error.distance_delta = variant & 1 ? 0.05 : 0.0;
    cfg.error.random_rotation = (variant & 8) == 0;
    sched::FSyncScheduler sched_engine(n);
    Engine engine(initial, kknps, sched_engine, cfg);
    sched::FSyncScheduler sched_oracle(n);
    EngineOracle oracle(initial, kknps, sched_oracle, cfg);

    const std::size_t steps = 3 * n;
    std::size_t done = 0, nodes = 0;
    for (; done < steps && engine.step(); ++done) nodes += engine.look_grid_nodes();
    ASSERT_EQ(done, oracle.run(steps)) << "variant " << variant;
    expect_identical_traces(engine.trace(), oracle.trace(), variant);
    EXPECT_GT(oracle.trace().records()[n / 2].seen, 200u) << "variant " << variant;
    EXPECT_EQ(nodes, 0u) << "variant " << variant;
  }
}

struct SharedLooks {
  std::size_t shared = 0, certificates = 0;
  std::vector<ActivationRecord> records;  // the reference's
};

/// The engine against the reference engine for `steps` activations, each
/// on a fresh scheduler from make(): bit-identical traces. Returns how many
/// engine Looks reused their instant's co-location certificate, how many
/// instants the engine certified, and the reference's records.
template <class MakeScheduler>
SharedLooks run_against_oracle(const std::vector<Vec2>& initial, const Algorithm& algorithm,
                               const EngineConfig& cfg, MakeScheduler make, std::size_t steps,
                               std::uint64_t tag) {
  const std::unique_ptr<Scheduler> sched_engine = make();
  Engine engine(initial, algorithm, *sched_engine, cfg);
  const std::unique_ptr<Scheduler> sched_oracle = make();
  EngineOracle oracle(initial, algorithm, *sched_oracle, cfg);
  SharedLooks c;
  std::size_t done = 0;
  for (; done < steps && engine.step(); ++done) c.shared += engine.look_colocation_shared() ? 1 : 0;
  c.certificates = engine.instant_certificates();
  EXPECT_EQ(done, oracle.run(steps)) << "tag " << tag;
  expect_identical_traces(engine.trace(), oracle.trace(), tag);
  c.records = oracle.trace().records();
  return c;
}

TEST(EngineEquivalence, LookInstantCertificateMatchesOracleAcrossSchedulesAndFrames) {
  // The schedules whose Looks share instants (FSync; SSync with xi = 0.5;
  // k-NestA with k = 2, whose outer robots Look at the round's start) on
  // a dense grid (~99 neighbours per Look) and a sparse random swarm, with
  // and without multiplicity detection, in identity, rotated, mirrored,
  // mirrored noisy and skewed frames. On the grid, Looks after a round's
  // first few reuse the round's certificate in every frame without skew,
  // and never in skewed ones; the traces match the reference, which
  // resolves co-location all-pairs on every Look.
  const algo::KknpsAlgorithm kknps({.k = 1});
  const std::vector<std::vector<Vec2>> swarms{
      metrics::grid_configuration(100, 0.05),
      metrics::random_connected_configuration(96, 0.4 * std::sqrt(96.0), 1.0, 7)};
  for (std::uint64_t variant = 0; variant < 60; ++variant) {
    const std::vector<Vec2>& initial = swarms[variant % 2];
    const std::size_t n = initial.size();
    const std::uint64_t schedule = variant / 2 % 3;
    const std::uint64_t frames = variant / 12;
    EngineConfig cfg;
    cfg.seed = variant + 1;
    cfg.visibility.multiplicity_detection = variant / 6 % 2 == 1;
    cfg.error.random_rotation = frames != 0;
    cfg.error.allow_reflection = frames == 2 || frames == 3;
    cfg.error.distance_delta = frames == 3 ? 0.01 : 0.0;
    cfg.error.skew_lambda = frames == 4 ? 0.3 : 0.0;
    const auto make = [&]() -> std::unique_ptr<Scheduler> {
      if (schedule == 0) return std::make_unique<sched::FSyncScheduler>(n);
      if (schedule == 1) {
        sched::SSyncScheduler::Params p;
        p.seed = variant;
        p.xi = 0.5;
        return std::make_unique<sched::SSyncScheduler>(n, p);
      }
      sched::KNestAScheduler::Params p;
      p.seed = variant;
      p.k = 2;
      return std::make_unique<sched::KNestAScheduler>(n, p);
    };
    const SharedLooks c = run_against_oracle(initial, kknps, cfg, make, 3 * n, variant);
    if (frames == 4) {
      EXPECT_EQ(c.shared, 0u) << "variant " << variant;
      EXPECT_EQ(c.certificates, 0u) << "variant " << variant;
    } else if (variant % 2 == 0) {
      EXPECT_GT(c.shared, n / 4) << "variant " << variant;
      EXPECT_GE(c.certificates, 2u) << "variant " << variant;
    }
    if (HasFailure()) return;
  }
}

TEST(EngineEquivalence, GatheredAndColocatedSwarmsDeclineTheInstantCertificate) {
  // Configurations the instant's certificate must decline: the dense grid
  // with 16 robots stacked on occupied sites, a gathered swarm of 64
  // robots 1e-13 apart, and the grid with one pair 2e-12 apart (not
  // co-located, but within the margin H, ~2.4e-12 at V = 1). In one FSync
  // round the engine certifies the configuration once, declines, and
  // every Look decides its own co-location as the reference does.
  const algo::KknpsAlgorithm kknps({.k = 1});
  const std::vector<Vec2> grid = metrics::grid_configuration(100, 0.05);
  auto stacked = grid;
  for (std::size_t i = 0; i < 16; ++i) stacked[84 + i] = grid[5 * i];
  std::vector<Vec2> gathered;
  for (int i = 0; i < 64; ++i) gathered.push_back({0.3 + 1e-13 * (i % 8), -0.2 + 1e-13 * (i / 8)});
  auto close_pair = grid;
  close_pair[99] = grid[45] + Vec2{2e-12, 0.0};
  const std::vector<std::vector<Vec2>> swarms{stacked, gathered, close_pair};
  for (std::uint64_t variant = 0; variant < 12; ++variant) {
    const std::vector<Vec2>& initial = swarms[variant % 3];
    const std::size_t n = initial.size();
    EngineConfig cfg;
    cfg.seed = variant + 11;
    cfg.visibility.multiplicity_detection = variant / 3 % 2 == 1;
    cfg.error.allow_reflection = variant / 6 == 1;
    const auto make = [n] { return std::make_unique<sched::FSyncScheduler>(n); };
    const SharedLooks c = run_against_oracle(initial, kknps, cfg, make, n, variant);
    EXPECT_EQ(c.certificates, 1u) << "variant " << variant;
    EXPECT_EQ(c.shared, 0u) << "variant " << variant;
    if (HasFailure()) return;
  }
}

TEST(EngineEquivalence, LookInstantMarginCoversRotatedFrames) {
  // A 7 x 7 grid 0.1 apart (every robot sees the other 48) with one robot
  // moved to s from another on x, for s around sqrt(2)·eps and around the
  // margin H. A frame rotated near 45° brings a pair less than
  // sqrt(2)·eps apart within eps on both axes, so some Looks must collapse
  // it; the instant's certificate must then have declined, as it does for
  // every s up to H, and certify above it. One FSync round per frame kind
  // (rotated, mirrored, noisy), with and without multiplicity detection.
  constexpr double e = kColocationEps;
  const algo::KknpsAlgorithm kknps({.k = 1});
  const double h = look_instant_margin(1.0, 0.0);
  const double separations[] = {1.02 * e, 1.2 * e,         1.4 * e,          1.6 * e, 2.0 * e,
                                h * (1 - 1e-4), h * (1 + 1e-4), 1.5 * h};
  std::size_t collapsed = 0;
  std::uint64_t tag = 0;
  for (const double s : separations) {
    auto initial = metrics::grid_configuration(49, 0.1);
    initial[48] = initial[24] + Vec2{s, 0.0};
    const double apart = initial[48].x - initial[24].x;  // exact (Sterbenz)
    for (std::uint64_t variant = 0; variant < 6; ++variant) {
      EngineConfig cfg;
      cfg.seed = ++tag;
      cfg.visibility.multiplicity_detection = variant % 2 == 1;
      cfg.error.allow_reflection = variant / 2 == 1;
      cfg.error.distance_delta = variant / 2 == 2 ? 1e-9 : 0.0;
      const auto make = [] { return std::make_unique<sched::FSyncScheduler>(49); };
      const SharedLooks c = run_against_oracle(initial, kknps, cfg, make, 49, tag);
      for (const ActivationRecord& rec : c.records) {
        collapsed += rec.seen == 47 ? 1 : 0;  // the pair seen as one
      }
      const double margin = look_instant_margin(1.0, cfg.error.distance_delta);
      EXPECT_EQ(c.shared > 0, apart > margin) << "s " << s << " variant " << variant;
      if (HasFailure()) return;
    }
  }
  EXPECT_GT(collapsed, 100u);
}

/// Moves to its first visible neighbour: made with zero duration, the move
/// lands the robot on that neighbour at its Look instant.
class ToFirstNeighbour final : public Algorithm {
 public:
  [[nodiscard]] Vec2 compute(const Snapshot& snapshot) const override {
    return snapshot.empty() ? Vec2{} : snapshot.neighbours().front().position;
  }
  [[nodiscard]] std::string_view name() const override { return "to-first-neighbour"; }
};

TEST(EngineEquivalence, ZeroDurationMoveDropsTheInstantVerdict) {
  // 16 robots on a 0.1 grid all Look at t = 1, each seeing the other 15.
  // After two Looks the engine certifies the configuration, and Looks 2-5
  // reuse the verdict. Robot 5 then moves with zero duration onto robot 0,
  // so at t = 1 two robots are co-located: the commit must drop the
  // verdict, and Looks 6-15 must see the pair as the reference does (one
  // neighbour fewer when collapsing). Their re-certification declines, as
  // does the certificate of the next round, whose robots moved onto their
  // first neighbours.
  const ToFirstNeighbour to_first;
  const std::vector<Vec2> initial = metrics::grid_configuration(16, 0.1);
  std::vector<Activation> script;
  for (RobotId r = 0; r < 16; ++r) {
    script.push_back(r == 5 ? Activation{r, 1.0, 1.0, 1.0, 1.0}
                            : Activation{r, 1.0, 1.25, 1.75, 1.0});
  }
  for (RobotId r = 0; r < 16; ++r) script.push_back({r, 2.0, 2.25, 2.75, 1.0});
  for (std::uint64_t variant = 0; variant < 4; ++variant) {
    EngineConfig cfg;
    cfg.seed = variant + 3;
    cfg.visibility.multiplicity_detection = variant % 2 == 1;
    cfg.error.random_rotation = variant / 2 == 1;
    sched::ScriptedScheduler sched_engine(script);
    Engine engine(initial, to_first, sched_engine, cfg);
    sched::ScriptedScheduler sched_oracle(script);
    EngineOracle oracle(initial, to_first, sched_oracle, cfg);
    std::vector<bool> shared;
    while (engine.step()) shared.push_back(engine.look_colocation_shared());
    ASSERT_EQ(oracle.run(script.size()), script.size());
    ASSERT_EQ(shared.size(), script.size());
    expect_identical_traces(engine.trace(), oracle.trace(), variant);
    for (std::size_t i = 0; i < shared.size(); ++i) {
      EXPECT_EQ(shared[i], i >= 2 && i <= 5) << "variant " << variant << " look " << i;
    }
    EXPECT_EQ(engine.instant_certificates(), 3u) << "variant " << variant;
    if (!cfg.visibility.multiplicity_detection) {
      EXPECT_EQ(oracle.trace().records()[6].seen, 14u) << "variant " << variant;
    }
  }
}

TEST(EngineEquivalence, SparseGridLooksWalkTheirWindowOnly) {
  // n = 256 on a 0.8 grid with V = 1 (the grid's cell): a Look's window of
  // at most 3 x 3 cells holds a few of the ~170 occupied ones, so it walks
  // the cell lists, and exactly the nodes in its window. The nodes are
  // restated from the trace: a robot sits in the cells of its current
  // segment's box until the segment has ended, then in its end cell.
  const algo::KknpsAlgorithm kknps({.k = 1});
  const std::size_t n = 256;
  const auto initial = metrics::grid_configuration(n, 0.8);
  for (const bool noisy : {false, true}) {
    EngineConfig cfg;
    cfg.visibility.radius = 1.0;
    cfg.error.distance_delta = noisy ? 0.05 : 0.0;
    sched::FSyncScheduler sched_engine(n);
    Engine engine(initial, kknps, sched_engine, cfg);
    sched::FSyncScheduler sched_oracle(n);
    EngineOracle oracle(initial, kknps, sched_oracle, cfg);

    const auto cell = [](double coord) { return static_cast<std::int64_t>(std::floor(coord)); };
    std::vector<std::optional<ActivationRecord>> segment(n);  // each robot's last commit
    const std::size_t steps = 3 * n;
    std::size_t done = 0;
    for (; done < steps && engine.step(); ++done) {
      const ActivationRecord& look = engine.trace().records().back();
      const Time t = look.activation.t_look;
      const double reach = cfg.visibility.radius + kVisibilityEpsilon;
      const std::int64_t wx0 = cell(look.from.x - reach), wx1 = cell(look.from.x + reach);
      const std::int64_t wy0 = cell(look.from.y - reach), wy1 = cell(look.from.y + reach);
      std::size_t occupancy = 0;
      for (std::size_t r = 0; r < n; ++r) {
        const std::optional<ActivationRecord>& seg = segment[r];
        Vec2 lo = seg ? seg->realized : initial[r], hi = lo;
        if (seg && seg->end() > t) {
          lo = {std::min(seg->from.x, seg->realized.x), std::min(seg->from.y, seg->realized.y)};
          hi = {std::max(seg->from.x, seg->realized.x), std::max(seg->from.y, seg->realized.y)};
        }
        const std::int64_t sx = std::max(cell(lo.x), wx0), ex = std::min(cell(hi.x), wx1);
        const std::int64_t sy = std::max(cell(lo.y), wy0), ey = std::min(cell(hi.y), wy1);
        if (sx <= ex && sy <= ey) occupancy += static_cast<std::size_t>((ex - sx + 1) * (ey - sy + 1));
      }
      ASSERT_GT(engine.look_grid_nodes(), 0u) << "look " << done;
      ASSERT_EQ(engine.look_grid_nodes(), occupancy) << "look " << done;
      segment[look.activation.robot] = look;
    }
    ASSERT_EQ(done, oracle.run(steps)) << "noisy " << noisy;
    expect_identical_traces(engine.trace(), oracle.trace(), noisy);
  }
}

TEST(EngineEquivalence, WideVisibilityMaterializesFarProxiesAtStaging) {
  // V = 40 over a grid of spacing 8: a Look sees ~55 neighbours, most of
  // them with |q.x| + |q.y| > 32, which staging materializes at once
  // instead of keeping a proxy. Rotated and reflected frames, distance
  // noise and both co-location rules, against the reference engine; the
  // exact positions built per Look add up to the figure the engine gave
  // when co-location materialized them in a pass of its own.
  const algo::KknpsAlgorithm kknps({.k = 1});
  const std::size_t n = 144;
  const auto initial = metrics::grid_configuration(n, 8.0);
  std::size_t materializations = 0;
  for (std::uint64_t variant = 0; variant < 8; ++variant) {
    EngineConfig cfg;
    cfg.seed = 40 + variant;
    cfg.visibility.radius = 40.0;
    cfg.visibility.multiplicity_detection = (variant & 1) != 0;
    cfg.error.distance_delta = variant & 2 ? 0.05 : 0.0;
    cfg.error.allow_reflection = (variant & 4) != 0;
    sched::KAsyncScheduler::Params p;
    p.seed = 7 + variant;
    p.k = 2;
    sched::KAsyncScheduler sched_engine(n, p);
    Engine engine(initial, kknps, sched_engine, cfg);
    sched::KAsyncScheduler sched_oracle(n, p);
    EngineOracle oracle(initial, kknps, sched_oracle, cfg);

    const std::size_t steps = 4 * n;
    std::size_t seen = 0;
    for (std::size_t i = 0; i < steps; ++i) {
      ASSERT_TRUE(engine.step()) << "variant " << variant;
      materializations += engine.look_materializations();
      seen += engine.trace().records().back().seen;
    }
    ASSERT_EQ(oracle.run(steps), steps) << "variant " << variant;
    expect_identical_traces(engine.trace(), oracle.trace(), variant);
    EXPECT_GT(seen, 50 * steps) << "variant " << variant;
  }
  EXPECT_EQ(materializations, 142659u);
}

TEST(EngineEquivalence, UnrestrictedAsyncLongRunIncrementalVsOracle) {
  // The regime the incremental index exists for: unrestricted Async
  // (k-Async with the bound removed) gives every Look a distinct time, and
  // the index re-buckets only the just-moved robot. A longer run than the
  // fuzz harness's, across several seeds and swarm sizes.
  const algo::KknpsAlgorithm kknps({.k = 2});
  for (const std::uint64_t seed : {3u, 17u, 90u}) {
    const std::size_t n = 32 + (seed % 3) * 48;
    const auto initial =
        metrics::random_connected_configuration(n, 0.4 * std::sqrt(double(n)), 1.0, seed);
    sched::KAsyncScheduler::Params p;
    p.k = std::numeric_limits<std::size_t>::max();  // Async: no asynchrony bound
    p.seed = seed * 31 + 1;
    EngineConfig cfg;
    cfg.visibility.radius = 1.0;
    cfg.error.distance_delta = 0.03;  // per-neighbour RNG draws pin the Look order

    sched::KAsyncScheduler sched_engine(n, p);
    Engine engine(initial, kknps, sched_engine, cfg);
    sched::KAsyncScheduler sched_oracle(n, p);
    EngineOracle oracle(initial, kknps, sched_oracle, cfg);

    const std::size_t steps = 2500;
    ASSERT_EQ(engine.run(steps), oracle.run(steps)) << "seed " << seed;
    expect_identical_traces(engine.trace(), oracle.trace(), seed);
    EXPECT_EQ(engine.current_diameter(), oracle.current_diameter()) << "seed " << seed;
  }
}

TEST(EngineEquivalence, ZeroDurationMovesAreSeenAtTheirLookTime) {
  // A zero-duration move (t_move_end == t_look) relocates the robot *at*
  // its Look time, so later same-time Looks must see it at its new
  // position. Several robots commit instantaneous moves at t = 1 and
  // observe each other at t = 1; engine and oracle traces must agree.
  const algo::CogAlgorithm cog;
  const std::vector<Vec2> initial{{0.0, 0.0}, {0.5, 0.0}, {0.9, 0.3}, {0.2, 0.6}};
  const std::vector<Activation> script{
      {0, 1.0, 1.0, 1.0, 1.0},  // instantaneous
      {1, 1.0, 1.0, 1.0, 0.5},  // instantaneous, xi-truncated
      {2, 1.0, 1.1, 1.4, 1.0},  // ordinary move proposed at the same Look time
      {3, 1.0, 1.0, 1.0, 1.0},  // instantaneous, after the ordinary one
      {0, 2.0, 2.0, 2.0, 1.0},
      {1, 2.0, 2.3, 2.5, 1.0},
  };
  EngineConfig cfg;
  cfg.visibility.radius = 1.0;
  cfg.error.random_rotation = false;

  sched::ScriptedScheduler sched_engine(script);
  Engine engine(initial, cog, sched_engine, cfg);
  sched::ScriptedScheduler sched_oracle(script);
  EngineOracle oracle(initial, cog, sched_oracle, cfg);

  ASSERT_EQ(oracle.run(script.size()), script.size());
  ASSERT_EQ(engine.run(script.size()), script.size());
  expect_identical_traces(engine.trace(), oracle.trace(), 0);
  // Robot 1 at t=1 must have seen robot 0 at its *post-teleport* position.
  EXPECT_EQ(engine.trace().records()[1].from, oracle.trace().records()[1].from);
}

TEST(EngineEquivalence, BackwardLookWithinSchedulerSlackStaysExact) {
  // The Scheduler contract allows a Look up to 1e-12 *before* the current
  // frontier. The incremental index cannot serve such a query from its
  // forward-maintained buckets (positions then live on already-replaced
  // segments), so the engine must fall back to a scan for that Look — and
  // resume incremental service afterwards. Engine and oracle must agree.
  const algo::CogAlgorithm cog;
  // Robots 4 and 5 sit out of the others' sight, for the move-end rows.
  const std::vector<Vec2> initial{{0.0, 0.0},  {0.6, 0.0},  {0.3, 0.5},
                                  {-0.4, 0.2}, {0.5, -2.7}, {0.0, -3.0}};
  const double eps = 5e-13;  // within the 1e-12 ordering slack
  const std::vector<Activation> script{
      {0, 1.0, 1.1, 1.6, 1.0},
      {1, 1.0 - eps, 1.0, 1.4, 1.0},        // backward Look: robot 0 not yet moved
      {2, 1.0 - eps / 2, 1.2, 1.5, 0.7},    // forward again, still before t = 1
      {3, 2.0, 2.1, 2.4, 1.0},              // normal forward service resumes
      {0, 3.0, 3.0, 3.3, 1.0},
      {1, 3.0 - eps, 3.1, 3.2, 1.0},        // backward again after real motion
      {2, 4.0, 4.0, 4.0, 1.0},              // zero-duration move after a fallback
      {3, 4.0, 4.2, 4.6, 1.0},
      // Chained sub-slack regression: each Look within 1e-12 of the
      // *previous* one (the engine's frontier), though the last is more
      // than 1e-12 below the first — legal per the engine contract.
      {0, 5.0, 5.1, 5.2, 1.0},
      {1, 5.0 - 9e-13, 5.0, 5.1, 1.0},
      {2, 5.0 - 1.8e-12, 5.3, 5.4, 1.0},
      // A backward Look that catches a robot mid-move: robot 0's move ends
      // at t = 7, where its next Look replaces the segment, and robot 1
      // looks just before, while robot 0 is still short of its end point.
      {0, 6.0, 6.0, 7.0, 1.0},
      {0, 7.0, 7.5, 8.0, 1.0},
      {1, 7.0 - eps, 7.2, 7.4, 1.0},
      // Robot 4 moves toward robot 5, which Looks exactly at its move end
      // and must read the end point, not the interpolation at fraction 1.
      {4, 8.0, 8.1, 8.5, 1.0},
      {5, 8.5, 8.6, 8.8, 1.0},
  };
  EngineConfig cfg;
  cfg.visibility.radius = 1.0;
  cfg.error.random_rotation = false;
  // Motion error: an end point `from + d` is always `from + (end - from)`
  // again in binary64; the perpendicular deviation makes ends that are not.
  cfg.error.motion_quad_coeff = 0.1;

  sched::ScriptedScheduler sched_engine(script);
  Engine engine(initial, cog, sched_engine, cfg);
  sched::ScriptedScheduler sched_oracle(script);
  EngineOracle oracle(initial, cog, sched_oracle, cfg);

  ASSERT_EQ(oracle.run(script.size()), script.size());
  ASSERT_EQ(engine.run(script.size()), script.size());
  expect_identical_traces(engine.trace(), oracle.trace(), 0);
  // The move-end rows discriminate only if that interpolation misses the
  // end point in binary64 and the looker sees the mover alone.
  const ActivationRecord& mover = oracle.trace().records()[14];
  EXPECT_NE(mover.from.x + (mover.realized.x - mover.from.x) * 1.0, mover.realized.x);
  EXPECT_EQ(oracle.trace().records().back().seen, 1u);
}

TEST(EngineEquivalence, ZeroDurationAndBackwardSlackScriptsStayExact) {
  // The engine's two scheduler-slack subtleties in one script with motion
  // error: a zero-duration move must be seen by later same-time Looks, and
  // a Look within the 1e-12 ordering slack *before* the frontier must be
  // served by the scan fallback. The last row Looks exactly at a
  // neighbour's move end.
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
  EngineConfig cfg;
  cfg.visibility.radius = 1.0;
  cfg.error.random_rotation = false;
  // Motion error: an end point `from + d` is always `from + (end - from)`
  // again in binary64; the perpendicular deviation makes ends that are not.
  cfg.error.motion_quad_coeff = 0.1;

  sched::ScriptedScheduler sched_oracle(script);
  EngineOracle oracle(initial, cog, sched_oracle, cfg);
  ASSERT_EQ(oracle.run(script.size()), script.size());
  // The move-end rows tell `t >= t_move_end` (the end point) from
  // `t > t_move_end` (the lerp at fraction 1) only if that lerp misses the
  // end point in binary64 and the looker sees the mover alone.
  const ActivationRecord& mover = oracle.trace().records()[11];
  EXPECT_NE(mover.from.x + (mover.realized.x - mover.from.x) * 1.0, mover.realized.x);
  EXPECT_EQ(oracle.trace().records().back().seen, 1u);
  sched::ScriptedScheduler sched_engine(script);
  Engine engine(initial, cog, sched_engine, cfg);
  ASSERT_EQ(engine.run(script.size()), script.size());
  expect_identical_traces(engine.trace(), oracle.trace(), 0);
}

TEST(EngineEquivalence, TwoCyclesWithinTheSlackExhaustBoundedHistoryOnly) {
  // Robot 0 completes two zero-length cycles at t = 5; robot 1 then Looks
  // within kLookSlack before them, where robot 0 sits on a segment two
  // back. Only the Trace still holds it: the bounded mode (current +
  // previous segment) must refuse loudly, naming the robot and the time.
  const algo::CogAlgorithm cog;
  const std::vector<Vec2> initial{{0.0, 0.0}, {0.5, 0.0}};
  const double late = 5.0 - 9e-13;
  const std::vector<Activation> script{
      {0, 1.0, 1.0, 1.0, 1.0},
      {0, 5.0, 5.0, 5.0, 1.0},
      {0, 5.0, 5.0, 5.0, 1.0},
      {1, late, late, late, 1.0},
  };
  EngineConfig cfg;
  cfg.visibility.radius = 1.0;
  cfg.error.random_rotation = false;

  sched::ScriptedScheduler sched_memory(script);
  Engine memory(initial, cog, sched_memory, cfg);
  ASSERT_EQ(memory.run(script.size()), script.size());
  sched::ScriptedScheduler sched_oracle(script);
  EngineOracle oracle(initial, cog, sched_oracle, cfg);
  ASSERT_EQ(oracle.run(script.size()), script.size());
  expect_identical_traces(memory.trace(), oracle.trace(), 0);
  EXPECT_EQ(memory.position(0, late), memory.trace().position(0, late));
  EXPECT_EQ(memory.trace().records().back().seen, 1u);

  cfg.record_history = false;
  sched::ScriptedScheduler sched_bounded(script);
  Engine bounded(initial, cog, sched_bounded, cfg);
  ASSERT_EQ(bounded.run(script.size() - 1), script.size() - 1);
  try {
    (void)bounded.step();
    FAIL() << "bounded history answered a position two segments back";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("robot 0 "), std::string::npos) << what;
    EXPECT_NE(what.find("t=4.9999999999991"), std::string::npos) << what;
  }
}

TEST(EngineEquivalence, StopCheckDiameterMatchesOracleAtEveryCheck) {
  // Engine::current_diameter keeps a geom::DiameterTracker from check to
  // check; the reference re-sorts its Trace configuration with
  // geom::set_diameter every time. One KAsync seed and one FSync seed of
  // the generator above, compared bit for bit at every 64-activation check
  // of run_until (the predicate runs right after the engine's own check,
  // so its current_diameter() call answers from the unchanged tracker).
  const algo::KknpsAlgorithm kknps({.k = 2});
  const std::size_t n = 150;
  const auto initial = metrics::grid_configuration(n, 0.8);
  for (const std::uint64_t seed : {7u, 10u}) {  // KAsync k = 2, then FSync
    const auto sched_engine = make_scheduler(seed, n);
    Engine engine(initial, kknps, *sched_engine, make_config(seed, n));
    const auto sched_oracle = make_scheduler(seed, n);
    EngineOracle oracle(initial, kknps, *sched_oracle, make_config(seed, n));
    std::size_t checks = 0;
    StopCondition stop;
    stop.epsilon = 0.05;
    stop.max_activations = 40 * 64;
    stop.predicate = [&](const Engine& e) {
      EXPECT_EQ(oracle.run(64), 64u);
      const double got = e.current_diameter();
      EXPECT_EQ(e.diameter_points_sorted(), 0u) << "seed " << seed << " check " << checks;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(oracle.current_diameter()))
          << "seed " << seed << " check " << checks;
      ++checks;
      return false;
    };
    EXPECT_FALSE(engine.run_until(stop)) << "seed " << seed;
    EXPECT_EQ(checks, 40u) << "seed " << seed;
    expect_identical_traces(engine.trace(), oracle.trace(), seed);
  }
}

TEST(EngineEquivalence, ViewPositionsAgreeMidRun) {
  // SimulationView::position (consumed by omniscient schedulers) must agree
  // between the cache tier and the trace tier at past and future times.
  const algo::KknpsAlgorithm kknps({.k = 1});
  const std::size_t n = 24;
  const auto initial =
      metrics::random_connected_configuration(n, 0.4 * std::sqrt(double(n)), 1.0, 5);
  sched::KAsyncScheduler sched(n, {.seed = 5});
  EngineConfig cfg;
  cfg.visibility.radius = 1.0;
  Engine engine(initial, kknps, sched, cfg);
  for (int chunk = 0; chunk < 20; ++chunk) {
    engine.run(10);
    for (RobotId r = 0; r < n; ++r) {
      for (double dt : {-2.0, -0.5, 0.0, 0.7, 5.0}) {
        const Time t = engine.frontier() + dt;
        if (t < 0.0) continue;
        const Vec2 via_view = engine.position(r, t);
        const Vec2 via_trace = engine.trace().position(r, t);
        EXPECT_EQ(via_view.x, via_trace.x) << "robot " << r << " t " << t;
        EXPECT_EQ(via_view.y, via_trace.y) << "robot " << r << " t " << t;
      }
    }
  }
}

}  // namespace
}  // namespace cohesion::core
