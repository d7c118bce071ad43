// E13 — spatial-index scaling, scalar vs SoA snapshot kernel: engine
// throughput of the one snapshot feed (incremental cell maintenance,
// O(segment cells) per commit + O(candidates) per query) across swarm
// sizes n in {16, 64, 256, 1024, 4096}, with the scalar filter and with
// EngineConfig::soa_kernel in the same binary. The reference engine that
// certifies both kernels' traces bit for bit is the test oracle
// tests/oracles/engine_oracle.hpp.
//
// The KAsync pair runs the scheduler's opt-in heap selection, which keeps
// the default selection's n RNG draws per proposal out of the measurement
// (perfbench's async_stream workload times the default path).
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

void run_kasync(benchmark::State& state, bool soa = false) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const algo::KknpsAlgorithm algo({.k = 1});
  const auto initial =
      metrics::grid_configuration(n, 0.75);
  const std::size_t activations = n * kActivationsPerRobot;
  for (auto _ : state) {
    state.PauseTiming();
    sched::KAsyncScheduler sched(n, {.seed = 11, .heap_selection = true});
    core::Engine engine(initial, algo, sched, config_for(soa));
    state.ResumeTiming();
    benchmark::DoNotOptimize(engine.run(activations));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(activations));
}

void BM_FSyncIncremental(benchmark::State& state) { run_fsync(state); }
// The full fast path: incremental index + the scheduler's opt-in O(log n)
// heap selection (Params::heap_selection; a different but equally valid
// seeded stream). With both O(n)-per-activation costs gone this is the
// KAsync configuration a production deployment would run.
void BM_KAsyncFast(benchmark::State& state) { run_kasync(state); }
// SoA snapshot kernel (EngineConfig::soa_kernel) A/B pairs, same binary,
// registered adjacent to their scalar twins so an interleaved run measures
// both under the same thermal/clock conditions: BM_FSyncSoA against
// BM_FSyncIncremental, BM_KAsyncFastSoA against BM_KAsyncFast. Both
// produce bit-identical traces to their twins — enforced by the
// soa_certification battery (architecture contract 12).
void BM_FSyncSoA(benchmark::State& state) { run_fsync(state, /*soa=*/true); }
void BM_KAsyncFastSoA(benchmark::State& state) { run_kasync(state, /*soa=*/true); }

BENCHMARK(BM_FSyncIncremental)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FSyncSoA)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_KAsyncFast)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_KAsyncFastSoA)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

}  // namespace
