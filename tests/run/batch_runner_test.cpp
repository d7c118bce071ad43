#include "run/batch_runner.hpp"

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "run/instantiate.hpp"
#include "sched/asynchronous.hpp"

namespace cohesion::run {
namespace {

/// A small but real sweep: 2 scheduler-k variants x 4 repeats of KKNPS on a
/// line chain, a few thousand activations each.
ExperimentSpec small_sweep() {
  ExperimentSpec e;
  e.name = "determinism";
  e.base.n = 8;
  e.base.seed = 2024;
  e.base.algorithm = {.type = "kknps", .params = Json::parse(R"({"k": 2})")};
  e.base.scheduler = {.type = "kasync", .params = Json::parse(R"({"xi": 0.5})")};
  e.base.initial = {.type = "line", .params = Json::parse(R"({"spacing": 0.9})")};
  e.base.stop.epsilon = 0.05;
  e.base.stop.max_activations = 20000;
  e.repeats = 4;
  e.axes.push_back({"scheduler.params.k", {Json(1), Json(2)}});
  return e;
}

TEST(BatchRunner, SweepIsBitIdenticalAt1And8WorkerThreads) {
  const ExperimentSpec e = small_sweep();

  BatchRunner::Options one;
  one.threads = 1;
  BatchRunner::Options eight;
  eight.threads = 8;
  const BatchResult r1 = BatchRunner(one).run(e);
  const BatchResult r8 = BatchRunner(eight).run(e);

  ASSERT_EQ(r1.outcomes.size(), 8u);
  ASSERT_EQ(r8.outcomes.size(), 8u);
  // Per-run results identical, including every analyzed metric...
  for (std::size_t i = 0; i < r1.outcomes.size(); ++i) {
    EXPECT_EQ(r1.outcomes[i].to_json().dump(), r8.outcomes[i].to_json().dump()) << i;
  }
  // ...and so the aggregated report (timing excluded) is byte-identical.
  EXPECT_EQ(BatchRunner::report_json(e, r1, false).dump(2),
            BatchRunner::report_json(e, r8, false).dump(2));
}

TEST(BatchRunner, TimedReportNamesTheSelectionCopyAndUntimedBytesDoNot) {
  const ExperimentSpec e = small_sweep();
  const BatchResult r = BatchRunner().run(e);
  const Json timed = BatchRunner::report_json(e, r, true);
  ASSERT_TRUE(timed.contains("timing"));
  const std::string copy = timed.at("timing").at("kasync_selection").as_string();
  EXPECT_EQ(copy, sched::selection_copy());
  EXPECT_TRUE(copy == "avx2" || copy == "baseline") << copy;

  // Without timing the report has no trace of it: --no-timing bytes,
  // cache entries and merged reports stay host-independent.
  const Json untimed = BatchRunner::report_json(e, r, false);
  EXPECT_FALSE(untimed.contains("timing"));
  EXPECT_EQ(untimed.dump(2).find("kasync_selection"), std::string::npos);
}

TEST(BatchRunner, AggregateFoldsTheExpectedFields) {
  const ExperimentSpec e = small_sweep();
  BatchRunner::Options options;
  options.threads = 2;
  const BatchResult r = BatchRunner(options).run(e);
  const Aggregate a = BatchRunner::aggregate(r.outcomes);
  EXPECT_EQ(a.runs, 8u);
  EXPECT_EQ(a.errors, 0u);
  EXPECT_EQ(a.converged, 8u);  // an 8-robot chain converges well within budget
  EXPECT_EQ(a.cohesion_failures, 0u);
  EXPECT_GT(a.mean_rounds, 0.0);
  EXPECT_LE(a.p50_rounds, a.p90_rounds);
  EXPECT_GT(a.total_activations, 0u);
  EXPECT_NEAR(a.mean_initial_diameter, 0.9 * 7, 1e-9);

  const auto by_variant = BatchRunner::aggregate_by_variant(r.outcomes);
  ASSERT_EQ(by_variant.size(), 2u);
  EXPECT_EQ(by_variant[0].runs, 4u);
  EXPECT_EQ(by_variant[1].runs, 4u);
}

TEST(BatchRunner, TraceMetricHookRunsPerRun) {
  ExperimentSpec e = small_sweep();
  e.repeats = 2;
  BatchRunner::Options options;
  options.threads = 4;
  options.trace_metric = [](const RunSpec& spec, const core::Engine& engine) {
    // Anything derivable from the finished engine; here: activations per
    // robot, which is > 0 for every robot under a fair scheduler.
    return static_cast<double>(engine.trace().records().size()) /
           static_cast<double>(spec.n);
  };
  const BatchResult r = BatchRunner(options).run(e);
  for (const RunOutcome& o : r.outcomes) EXPECT_GT(o.custom, 0.0);
}

TEST(BatchRunner, ARunFailureIsCapturedNotFatal) {
  ExperimentSpec e = small_sweep();
  e.repeats = 1;
  // Second variant names a nonexistent algorithm: expansion succeeds (the
  // key is data), execution of that run fails, the rest are unaffected.
  Json bad = Json::object();
  bad.set("label", "bad");
  Json algo = Json::object();
  algo.set("type", "definitely_not_registered");
  bad.set("algorithm", algo);
  Json good = Json::object();
  good.set("label", "good");
  e.axes = {SweepAxis{"", {good, bad}}};

  const BatchResult r = BatchRunner().run(e);
  ASSERT_EQ(r.outcomes.size(), 2u);
  EXPECT_TRUE(r.outcomes[0].error.empty());
  EXPECT_NE(r.outcomes[1].error.find("definitely_not_registered"), std::string::npos);
  const Aggregate a = BatchRunner::aggregate(r.outcomes);
  EXPECT_EQ(a.errors, 1u);
  EXPECT_EQ(a.converged, 1u);
}

/// Early stopping under a rule every repeat satisfies trivially: the first
/// `window` repeats of each variant run, the rest are skipped.
TEST(BatchRunner, EarlyStopSkipsRemainingRepeatsAndStaysDeterministic) {
  ExperimentSpec e = small_sweep();
  e.repeats = 6;
  e.early_stop.window = 2;
  e.early_stop.epsilon = 1.0;  // generous: converged diameters all agree within this
  e.early_stop.metric = "converged";

  BatchRunner::Options one;
  one.threads = 1;
  BatchRunner::Options eight;
  eight.threads = 8;
  const BatchResult r1 = BatchRunner(one).run(e);
  const BatchResult r8 = BatchRunner(eight).run(e);

  ASSERT_EQ(r1.outcomes.size(), 12u);
  // Which repeats are skipped is a pure function of the spec — identical
  // at 1 and 8 worker threads, down to the report bytes.
  EXPECT_EQ(BatchRunner::report_json(e, r1, false).dump(2),
            BatchRunner::report_json(e, r8, false).dump(2));
  for (const RunOutcome& o : r1.outcomes) {
    EXPECT_EQ(o.skipped, o.repeat >= 2) << "variant " << o.variant << " repeat " << o.repeat;
  }
  const Aggregate a = BatchRunner::aggregate(r1.outcomes);
  EXPECT_EQ(a.runs, 12u);
  EXPECT_EQ(a.skipped, 8u);
  EXPECT_EQ(a.converged, 4u);  // folds cover only the executed repeats
  const auto by_variant = BatchRunner::aggregate_by_variant(r1.outcomes);
  ASSERT_EQ(by_variant.size(), 2u);
  EXPECT_EQ(by_variant[0].skipped, 4u);
}

TEST(BatchRunner, EarlyStopWindowNeverFillingSkipsNothing) {
  ExperimentSpec plain = small_sweep();
  ExperimentSpec gated = small_sweep();
  gated.early_stop.window = 5;      // > repeats (4): can never fire
  gated.early_stop.epsilon = -1.0;  // and even the spread test is unsatisfiable
  const BatchResult rp = BatchRunner().run(plain);
  const BatchResult rg = BatchRunner().run(gated);
  for (const RunOutcome& o : rg.outcomes) EXPECT_FALSE(o.skipped);
  // The sequential per-variant path must execute the identical outcomes
  // the flat work-stealing path does.
  ASSERT_EQ(rp.outcomes.size(), rg.outcomes.size());
  for (std::size_t i = 0; i < rp.outcomes.size(); ++i) {
    EXPECT_EQ(rp.outcomes[i].to_json().dump(), rg.outcomes[i].to_json().dump()) << i;
  }
}

TEST(BatchRunner, EarlyStopUnknownMetricThrowsBeforeRunning) {
  ExperimentSpec e = small_sweep();
  e.early_stop.window = 2;
  e.early_stop.metric = "definitely_not_a_metric";
  EXPECT_THROW((void)BatchRunner().run(e), std::runtime_error);
}

TEST(Instantiate, BuildsEverySlotFromTheSpec) {
  RunSpec spec;
  spec.n = 6;
  spec.seed = 5;
  spec.algorithm = {.type = "null"};
  spec.scheduler = {.type = "fsync"};
  spec.error = {.type = "exact"};
  spec.initial = {.type = "grid", .params = Json::parse(R"({"spacing": 0.5})")};
  spec.visibility_radius = 2.0;
  RunInstance inst = instantiate(spec);
  EXPECT_EQ(inst.algorithm->name(), "Null");
  EXPECT_EQ(inst.scheduler->name(), "FSync");
  EXPECT_EQ(inst.initial.size(), 6u);
  EXPECT_DOUBLE_EQ(inst.config.visibility.radius, 2.0);
  EXPECT_FALSE(inst.config.error.random_rotation);
  EXPECT_EQ(inst.config.seed, seed_streams(5).engine);
  ASSERT_NE(inst.engine, nullptr);
  EXPECT_EQ(inst.engine->robot_count(), 6u);
  // A null-algorithm FSync run executes and never moves anyone.
  inst.engine->run(12);
  EXPECT_DOUBLE_EQ(inst.engine->current_diameter(),
                   metrics::analyze(inst.engine->trace(), 2.0, 0.01).initial_diameter);
}

}  // namespace
}  // namespace cohesion::run
