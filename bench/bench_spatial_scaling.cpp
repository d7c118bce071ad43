// E13 — spatial-index scaling: engine throughput of the one snapshot feed,
// incremental cell maintenance (O(segment cells) per commit + O(candidates)
// per query, regardless of how Look times are distributed), across swarm
// sizes n in {16, 64, 256, 1024, 4096}. The reference engine that
// certifies its traces bit for bit is the test oracle
// tests/oracles/engine_oracle.hpp.
//
// Under KAsync every Look has a distinct time; with the index O(1) per
// activation, the scheduler's own tie-jitter selection (n RNG draws per
// proposal, batched and vectorized but still ~4 ns per robot) is the next
// O(n)-per-activation term, so the KAsync series carries a second
// variant, BM_KAsyncFast = the scheduler's opt-in heap selection.
#include <benchmark/benchmark.h>

#include <cmath>

#include "algo/kknps.hpp"
#include "core/engine.hpp"
#include "metrics/configurations.hpp"
#include "sched/asynchronous.hpp"
#include "sched/synchronous.hpp"

using namespace cohesion;

namespace {

constexpr std::size_t kActivationsPerRobot = 8;

core::EngineConfig config_for(bool soa) {
  core::EngineConfig cfg;
  cfg.visibility.radius = 1.0;
  cfg.soa_kernel = soa;
  return cfg;
}

void run_fsync(benchmark::State& state, bool soa = false) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const algo::KknpsAlgorithm algo({.k = 1});
  const auto initial =
      metrics::grid_configuration(n, 0.75);
  const std::size_t activations = n * kActivationsPerRobot;
  for (auto _ : state) {
    state.PauseTiming();
    sched::FSyncScheduler sched(n);
    core::Engine engine(initial, algo, sched, config_for(soa));
    state.ResumeTiming();
    benchmark::DoNotOptimize(engine.run(activations));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(activations));
}

void run_kasync(benchmark::State& state, bool heap_selection = false, bool soa = false) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const algo::KknpsAlgorithm algo({.k = 1});
  const auto initial =
      metrics::grid_configuration(n, 0.75);
  const std::size_t activations = n * kActivationsPerRobot;
  for (auto _ : state) {
    state.PauseTiming();
    sched::KAsyncScheduler sched(n, {.seed = 11, .heap_selection = heap_selection});
    core::Engine engine(initial, algo, sched, config_for(soa));
    state.ResumeTiming();
    benchmark::DoNotOptimize(engine.run(activations));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(activations));
}

void BM_FSyncIncremental(benchmark::State& state) { run_fsync(state); }
void BM_KAsyncIncremental(benchmark::State& state) { run_kasync(state); }
// The full fast path: incremental index + the scheduler's opt-in O(log n)
// heap selection (Params::heap_selection; a different but equally valid
// seeded stream). With both O(n)-per-activation costs gone this is the
// KAsync configuration a production deployment would run.
void BM_KAsyncFast(benchmark::State& state) { run_kasync(state, /*heap_selection=*/true); }
// SoA snapshot kernel (EngineConfig::soa_kernel) A/B pairs, same binary,
// registered adjacent to their scalar twins so an interleaved run measures
// both under the same thermal/clock conditions: BM_FSyncSoA against
// BM_FSyncIncremental, BM_KAsyncFastSoA against BM_KAsyncFast. Both
// produce bit-identical traces to their twins — enforced by the
// soa_certification battery (architecture contract 12).
void BM_FSyncSoA(benchmark::State& state) { run_fsync(state, /*soa=*/true); }
void BM_KAsyncFastSoA(benchmark::State& state) {
  run_kasync(state, /*heap_selection=*/true, /*soa=*/true);
}

BENCHMARK(BM_FSyncIncremental)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FSyncSoA)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_KAsyncIncremental)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_KAsyncFast)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_KAsyncFastSoA)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

}  // namespace
