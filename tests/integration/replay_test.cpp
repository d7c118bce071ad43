// Replay pipeline: a run exported as a COHTRACE stream and re-imported
// must yield identical analysis results — the offline-analysis workflow of
// the CLI tool (cohesion_sim --trace, then cohesion_replay).
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "algo/kknps.hpp"
#include "core/engine.hpp"
#include "core/validators.hpp"
#include "metrics/configurations.hpp"
#include "metrics/stats.hpp"
#include "sched/asynchronous.hpp"
#include "trace/stream_reader.hpp"
#include "trace/stream_writer.hpp"

namespace cohesion {
namespace {

/// Write `original` through StreamTraceWriter and read it back through
/// StreamTraceReader into a materialized Trace.
core::Trace round_trip(const core::Trace& original, const std::string& tag) {
  const std::string path =
      (std::filesystem::temp_directory_path() / ("cohesion_replay_" + tag + ".cohtrace")).string();
  {
    trace::StreamHeader header;
    header.initial = original.initial_configuration();
    trace::StreamTraceWriter writer(path, std::move(header));
    for (const core::ActivationRecord& rec : original.records()) writer.append(rec);
    writer.finish();
  }
  trace::StreamTraceReader reader(path);
  core::Trace replayed(reader.header().initial);
  core::ActivationRecord rec;
  while (reader.next(rec)) replayed.record(rec);
  EXPECT_TRUE(reader.closed_cleanly());
  std::filesystem::remove(path);
  EXPECT_EQ(replayed.records().size(), original.records().size());
  EXPECT_EQ(replayed.end_time(), original.end_time());
  return replayed;
}

TEST(Replay, AnalysisIdenticalAfterRoundTrip) {
  const algo::KknpsAlgorithm algo({.k = 2});
  const auto initial = metrics::random_connected_configuration(12, 1.6, 1.0, 99);
  sched::KAsyncScheduler::Params p;
  p.k = 2;
  p.seed = 99;
  p.xi = 0.5;
  sched::KAsyncScheduler sched(initial.size(), p);
  core::EngineConfig cfg;
  cfg.visibility.radius = 1.0;
  cfg.seed = 99;
  cfg.error.distance_delta = 0.02;
  core::Engine engine(initial, algo, sched, cfg);
  engine.run(3000);

  const core::Trace replayed = round_trip(engine.trace(), "analysis");

  const auto a = metrics::analyze(engine.trace(), 1.0, 0.05);
  const auto b = metrics::analyze(replayed, 1.0, 0.05);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.initial_diameter, b.initial_diameter);
  EXPECT_EQ(a.final_diameter, b.final_diameter);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.rounds_to_halve, b.rounds_to_halve);
  EXPECT_EQ(a.activations, b.activations);
  EXPECT_EQ(a.cohesive, b.cohesive);
  EXPECT_EQ(a.worst_stretch, b.worst_stretch);
}

TEST(Replay, ValidatorsAgreeAfterRoundTrip) {
  const algo::KknpsAlgorithm algo({.k = 3});
  const auto initial = metrics::line_configuration(7, 0.8);
  sched::KAsyncScheduler::Params p;
  p.k = 3;
  p.seed = 31;
  sched::KAsyncScheduler sched(initial.size(), p);
  core::EngineConfig cfg;
  cfg.visibility.radius = 1.0;
  core::Engine engine(initial, algo, sched, cfg);
  engine.run(800);

  const core::Trace replayed = round_trip(engine.trace(), "validators");

  EXPECT_EQ(core::max_activations_within_interval(engine.trace()),
            core::max_activations_within_interval(replayed));
  EXPECT_EQ(core::is_k_async(engine.trace(), 3), core::is_k_async(replayed, 3));
  EXPECT_EQ(core::is_nested_activation(engine.trace()), core::is_nested_activation(replayed));
}

TEST(Replay, StatsOverTimeMatchesDirectSampling) {
  const algo::KknpsAlgorithm algo({.k = 1});
  const auto initial = metrics::line_configuration(5, 0.7);
  sched::KAsyncScheduler sched(initial.size());
  core::EngineConfig cfg;
  cfg.visibility.radius = 1.0;
  core::Engine engine(initial, algo, sched, cfg);
  engine.run(500);

  const std::vector<core::Time> times{0.0, 1.0, 5.0, 20.0, engine.trace().end_time()};
  const auto series = metrics::stats_over_time(engine.trace(), times, 1.0);
  ASSERT_EQ(series.size(), times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    const auto direct = metrics::configuration_stats(engine.trace().configuration(times[i]), 1.0);
    EXPECT_DOUBLE_EQ(series[i].diameter, direct.diameter);
    EXPECT_DOUBLE_EQ(series[i].hull_perimeter, direct.hull_perimeter);
    EXPECT_EQ(series[i].connected, direct.connected);
  }
  // Diameter non-increasing over the sampled times (hull-diminishing).
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_LE(series[i].diameter, series[i - 1].diameter + 1e-9);
  }
}

}  // namespace
}  // namespace cohesion
