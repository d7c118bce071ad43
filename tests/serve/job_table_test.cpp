// Unit layer for the serve scheduler: every lease/retry/re-partition
// decision as a pure state transition under an injected clock — no
// sockets, no processes. The process-level acceptance bar (byte-identity
// of served reports under crash schedules) lives in serve_e2e_test.cpp.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "run/batch_runner.hpp"
#include "run/exit_codes.hpp"
#include "serve/job_table.hpp"

namespace cohesion::serve {
namespace {

/// A 6-variant x 2-repeat grid. The JobTable never executes anything, so
/// the spec only has to parse and expand consistently.
run::Json sweep_echo() {
  run::ExperimentSpec e;
  e.name = "serve_unit";
  e.base.n = 8;
  e.base.seed = 2024;
  e.base.algorithm = {.type = "kknps", .params = Json::parse(R"({"k": 2})")};
  e.base.scheduler = {.type = "kasync", .params = Json::parse(R"({"xi": 0.5})")};
  e.base.initial = {.type = "line", .params = Json::parse(R"({"spacing": 0.9})")};
  e.base.stop.epsilon = 0.05;
  e.base.stop.max_activations = 1000;
  e.repeats = 2;
  e.axes.push_back({"scheduler.params.k", {Json(1), Json(2), Json(3), Json(4), Json(5), Json(6)}});
  return e.to_json();
}

run::RunOutcome outcome_for(std::size_t index, std::size_t repeats,
                            const std::string& error = "") {
  run::RunOutcome o;
  o.index = index;
  o.variant = index / repeats;
  o.repeat = index % repeats;
  o.label = "v" + std::to_string(o.variant);
  o.seed = 1000 + index;
  o.n = 8;
  o.converged = error.empty();
  o.error = error;
  return o;
}

std::vector<run::RunOutcome> shard_outcomes(std::size_t shard, std::size_t of,
                                            std::size_t variants, std::size_t repeats) {
  std::vector<run::RunOutcome> out;
  for (std::size_t v = shard; v < variants; v += of) {
    for (std::size_t r = 0; r < repeats; ++r) out.push_back(outcome_for(v * repeats + r, repeats));
  }
  return out;
}

ServeConfig quick_config() {
  ServeConfig c;
  c.retry.max_attempts = 2;
  c.retry.base_delay_seconds = 1.0;
  c.retry.jitter = 0.0;
  c.lease_timeout_seconds = 5.0;
  return c;
}

class JobTableTest : public ::testing::Test {
 protected:
  Effects fx_;
  JobTable table_{quick_config()};

  std::uint64_t add_default_job() { return table_.add_job("j", sweep_echo(), 0.0, fx_); }
};

TEST_F(JobTableTest, SingleWorkerGetsWholeGridAsOneShard) {
  const std::uint64_t job = add_default_job();
  const std::uint64_t w = table_.worker_joined("a");
  auto lease = table_.request_lease(w, 0.0, fx_);
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->job, job);
  EXPECT_EQ(lease->shard, 0u);
  EXPECT_EQ(lease->of, 1u);
  // The echo travels with the lease — the worker writes it to disk.
  EXPECT_EQ(lease->spec.dump(), sweep_echo().dump());
  // The whole grid is leased: nothing left for a second request.
  EXPECT_FALSE(table_.request_lease(w, 0.0, fx_).has_value());

  table_.complete(lease->id, shard_outcomes(0, 1, 6, 2), 1.0, fx_);
  EXPECT_TRUE(table_.job_done(job));
  EXPECT_EQ(table_.job_exit_code(job), run::kExitSuccess);
}

TEST_F(JobTableTest, DoneReportIsReportJsonFromEcho) {
  const std::uint64_t job = add_default_job();
  const std::uint64_t w = table_.worker_joined("a");
  auto lease = table_.request_lease(w, 0.0, fx_);
  std::vector<run::RunOutcome> all = shard_outcomes(0, 1, 6, 2);
  table_.complete(lease->id, all, 1.0, fx_);
  const run::Json expected = run::BatchRunner::report_json_from(
      run::ExperimentSpec::from_json(sweep_echo()).to_json(), all);
  EXPECT_EQ(table_.job_report(job).dump(2), expected.dump(2));
}

TEST_F(JobTableTest, TwoWorkersPartitionTheGrid) {
  add_default_job();
  const std::uint64_t w1 = table_.worker_joined("a");
  const std::uint64_t w2 = table_.worker_joined("b");
  auto l1 = table_.request_lease(w1, 0.0, fx_);
  ASSERT_TRUE(l1.has_value());
  EXPECT_EQ(l1->of, 2u);
  auto l2 = table_.request_lease(w2, 0.0, fx_);
  ASSERT_TRUE(l2.has_value());
  EXPECT_EQ(l2->of, 2u);
  EXPECT_NE(l1->shard, l2->shard);
}

TEST_F(JobTableTest, JoiningWorkersTriggerElasticGrowAndRevocation) {
  const std::uint64_t job = add_default_job();
  const std::uint64_t w1 = table_.worker_joined("a");
  const std::uint64_t w2 = table_.worker_joined("b");
  auto l1 = table_.request_lease(w1, 0.0, fx_);
  auto l2 = table_.request_lease(w2, 0.0, fx_);
  ASSERT_TRUE(l1 && l2);

  // Two more workers join: the idle request re-partitions 2 -> 4,
  // revoking the outstanding leases gracefully.
  const std::uint64_t w3 = table_.worker_joined("c");
  const std::uint64_t w4 = table_.worker_joined("d");
  auto l3 = table_.request_lease(w3, 1.0, fx_);
  ASSERT_TRUE(l3.has_value());
  EXPECT_EQ(l3->of, 4u);
  // The old leases answer invalid on their next heartbeat...
  EXPECT_FALSE(table_.heartbeat(l1->id, 100, 1, {}, 1.0, fx_));
  // ...and their journaled outcomes still fold in via release.
  table_.release(l1->id, shard_outcomes(0, 2, 6, 2), 1.1, fx_);
  auto l4 = table_.request_lease(w4, 1.2, fx_);
  ASSERT_TRUE(l4.has_value());
  EXPECT_EQ(l4->of, 4u);

  // Finish the rest under N=4: every uncovered variant is reachable.
  table_.release(l2->id, {}, 1.3, fx_);
  std::vector<std::uint64_t> workers = {w1, w2};
  for (std::size_t i = 0; !table_.job_done(job) && i < 16; ++i) {
    for (const std::uint64_t w : workers) {
      auto lease = table_.request_lease(w, 2.0 + static_cast<double>(i), fx_);
      if (lease) {
        table_.complete(lease->id,
                        shard_outcomes(lease->shard, lease->of, 6, 2), 2.0, fx_);
      }
    }
    if (l3) {
      table_.complete(l3->id, shard_outcomes(l3->shard, l3->of, 6, 2), 2.0, fx_);
      l3.reset();
    }
    if (l4) {
      table_.complete(l4->id, shard_outcomes(l4->shard, l4->of, 6, 2), 2.0, fx_);
      l4.reset();
    }
  }
  EXPECT_TRUE(table_.job_done(job));
}

TEST_F(JobTableTest, WorkerDeathPenalizesAndShrinksThePartition) {
  const std::uint64_t job = add_default_job();
  const std::uint64_t w1 = table_.worker_joined("a");
  const std::uint64_t w2 = table_.worker_joined("b");
  const std::uint64_t w3 = table_.worker_joined("c");
  auto l1 = table_.request_lease(w1, 0.0, fx_);
  auto l2 = table_.request_lease(w2, 0.0, fx_);
  auto l3 = table_.request_lease(w3, 0.0, fx_);
  ASSERT_TRUE(l1 && l2 && l3);
  EXPECT_EQ(l1->of, 3u);

  // w3's connection dies. Its lease costs an attempt; the job re-partitions
  // 3 -> 2, revoking the two survivors' leases gracefully.
  Effects fx;
  table_.worker_left(w3, 1.0, fx);
  bool saw_repartition = false;
  for (const std::string& note : fx.notes) {
    if (note.find("re-partitioned 3 -> 2") != std::string::npos) saw_repartition = true;
  }
  EXPECT_TRUE(saw_repartition);
  EXPECT_FALSE(table_.heartbeat(l1->id, 100, 1, {}, 1.0, fx_));
  table_.release(l1->id, {}, 1.0, fx_);
  table_.release(l2->id, {}, 1.0, fx_);

  // The survivors re-lease under N=2 and finish; the merged outcome set is
  // complete even though partitions 3 and 2 both contributed.
  for (double t = 2.0; !table_.job_done(job) && t < 64.0; t += 1.0) {
    for (const std::uint64_t w : {w1, w2}) {
      auto lease = table_.request_lease(w, t, fx_);
      if (!lease) continue;
      EXPECT_EQ(lease->of, 2u);
      table_.complete(lease->id, shard_outcomes(lease->shard, lease->of, 6, 2), t, fx_);
    }
  }
  EXPECT_TRUE(table_.job_done(job));
}

TEST_F(JobTableTest, WedgedLeaseExpiresOnlyWithoutJournalGrowth) {
  add_default_job();
  const std::uint64_t w = table_.worker_joined("a");
  auto lease = table_.request_lease(w, 0.0, fx_);
  ASSERT_TRUE(lease.has_value());

  // Growth keeps the lease alive past the nominal timeout...
  EXPECT_TRUE(table_.heartbeat(lease->id, 100, 1, {}, 4.0, fx_));
  table_.tick(8.0, fx_);
  EXPECT_TRUE(table_.heartbeat(lease->id, 200, 2, {}, 8.5, fx_));
  // ...but heartbeats without growth do not: wedged == dead.
  EXPECT_TRUE(table_.heartbeat(lease->id, 200, 2, {}, 12.0, fx_));
  Effects fx;
  table_.tick(14.0, fx);  // 5.5s since last *growth* at t=8.5
  bool expired = false;
  for (const std::string& note : fx.notes) {
    if (note.find("expired") != std::string::npos) expired = true;
  }
  EXPECT_TRUE(expired);
  EXPECT_FALSE(table_.heartbeat(lease->id, 200, 2, {}, 14.1, fx_));
}

TEST_F(JobTableTest, RetryableFailureBacksOffThenPoisonsAfterBudget) {
  const std::uint64_t job = add_default_job();
  const std::uint64_t w = table_.worker_joined("a");
  auto lease = table_.request_lease(w, 0.0, fx_);
  ASSERT_TRUE(lease.has_value());
  table_.fail(lease->id, run::kExitTransient, "crash", {}, 1.0, fx_);
  EXPECT_FALSE(table_.job_failed(job));
  // Backoff window: nothing leasable immediately...
  EXPECT_FALSE(table_.request_lease(w, 1.01, fx_).has_value());
  // ...but the deterministic backoff (base 1s, no jitter) passes.
  auto retry = table_.request_lease(w, 2.5, fx_);
  ASSERT_TRUE(retry.has_value());
  // Second failure exhausts max_attempts=2: every variant poisoned, no
  // leases outstanding -> the job fails with an explicit partial doc.
  table_.fail(retry->id, run::kExitTransient, "crash again", {}, 3.0, fx_);
  EXPECT_TRUE(table_.job_failed(job));
  EXPECT_EQ(table_.job_exit_code(job), run::kExitPermanent);
  const run::Json doc = table_.job_report(job);
  EXPECT_EQ(doc.string_or("format", ""), kSupervisedPartialFormat);
  EXPECT_EQ(doc.at("uncovered_variants").items().size(), 6u);
  EXPECT_GE(doc.at("uncovered_shards").items().size(), 1u);
}

TEST_F(JobTableTest, PermanentExitPoisonsWithoutRetry) {
  const std::uint64_t job = add_default_job();
  const std::uint64_t w = table_.worker_joined("a");
  auto lease = table_.request_lease(w, 0.0, fx_);
  ASSERT_TRUE(lease.has_value());
  table_.fail(lease->id, run::kExitUsage, "bad runner", {}, 1.0, fx_);
  EXPECT_TRUE(table_.job_failed(job));
}

TEST_F(JobTableTest, PartialCoverageFailureNamesTheUncoveredWork) {
  const std::uint64_t job = add_default_job();
  const std::uint64_t w1 = table_.worker_joined("a");
  const std::uint64_t w2 = table_.worker_joined("b");
  auto l1 = table_.request_lease(w1, 0.0, fx_);
  auto l2 = table_.request_lease(w2, 0.0, fx_);
  ASSERT_TRUE(l1 && l2);
  // Shard l1 completes; shard l2 fails permanently.
  table_.complete(l1->id, shard_outcomes(l1->shard, 2, 6, 2), 1.0, fx_);
  table_.fail(l2->id, run::kExitPermanent, "spec rejected", {}, 1.0, fx_);
  ASSERT_TRUE(table_.job_failed(job));
  const run::Json doc = table_.job_report(job);
  EXPECT_EQ(doc.string_or("format", ""), kSupervisedPartialFormat);
  EXPECT_EQ(doc.at("covered_runs").as_uint(), 6u);
  EXPECT_EQ(doc.at("uncovered_variants").items().size(), 3u);
  ASSERT_EQ(doc.at("uncovered_shards").items().size(), 1u);
  EXPECT_EQ(doc.at("uncovered_shards").items()[0].as_uint(), l2->shard);
  // Everything recovered is still in the doc.
  EXPECT_EQ(doc.at("runs").items().size(), 6u);
}

TEST_F(JobTableTest, ConflictingCompletedOutcomesFailTheJobNamingTheIndex) {
  const std::uint64_t job = add_default_job();
  const std::uint64_t w = table_.worker_joined("a");
  auto lease = table_.request_lease(w, 0.0, fx_);
  ASSERT_TRUE(lease.has_value());
  run::RunOutcome a = outcome_for(3, 2);
  run::RunOutcome b = outcome_for(3, 2);
  b.seed = a.seed + 1;  // same grid index, different bytes
  Effects fx;
  const bool valid1 = table_.heartbeat(lease->id, 10, 1, {a}, 0.5, fx);
  EXPECT_TRUE(valid1);
  table_.heartbeat(lease->id, 20, 2, {b}, 0.6, fx);
  ASSERT_TRUE(table_.job_failed(job));
  const run::Json doc = table_.job_report(job);
  const std::string err = doc.string_or("merge_error", "");
  EXPECT_NE(err.find("index 3"), std::string::npos) << err;
}

TEST_F(JobTableTest, CompletedOutcomeSupersedesErrored) {
  const std::uint64_t job = add_default_job();
  const std::uint64_t w = table_.worker_joined("a");
  auto lease = table_.request_lease(w, 0.0, fx_);
  ASSERT_TRUE(lease.has_value());
  table_.heartbeat(lease->id, 10, 1, {outcome_for(0, 2, "transient engine error")}, 0.5, fx_);
  // The retried run completes: the error was environmental, the completed
  // outcome is the run's one true result.
  table_.heartbeat(lease->id, 20, 2, {outcome_for(0, 2)}, 0.6, fx_);
  std::vector<run::RunOutcome> rest = shard_outcomes(0, 1, 6, 2);
  table_.complete(lease->id, rest, 1.0, fx_);
  EXPECT_TRUE(table_.job_done(job));
  EXPECT_EQ(table_.job_exit_code(job), run::kExitSuccess);
}

TEST_F(JobTableTest, LedgerReplayRestoresJobsOutcomesAndTerminalStates) {
  // Simulate the daemon's restart path: replay a job, some outcomes, and
  // check the rebuilt table resumes exactly where the old one stopped.
  JobTable fresh(quick_config());
  fresh.replay_job(7, "replayed", sweep_echo());
  for (const run::RunOutcome& o : shard_outcomes(0, 2, 6, 2)) fresh.replay_outcome(7, o);
  EXPECT_FALSE(fresh.job_terminal(7));

  const std::uint64_t w = fresh.worker_joined("a");
  Effects fx;
  // Half the grid is covered; one worker leases the remainder as 0/1 and
  // only the uncovered variants are left to run.
  auto lease = fresh.request_lease(w, 0.0, fx);
  ASSERT_TRUE(lease.has_value());
  fresh.complete(lease->id, shard_outcomes(1, 2, 6, 2), 1.0, fx);
  EXPECT_TRUE(fresh.job_done(7));

  JobTable sealed(quick_config());
  sealed.replay_job(9, "sealed", sweep_echo());
  sealed.replay_terminal(9, /*failed=*/true);
  EXPECT_TRUE(sealed.job_failed(9));
  // Job ids stay stable: the next fresh id continues past the replayed one.
  Effects fx2;
  EXPECT_EQ(sealed.add_job("next", sweep_echo(), 0.0, fx2), 10u);
}

TEST_F(JobTableTest, InvalidSpecIsRejectedAtSubmit) {
  Json bad = Json::object();
  bad.set("nonsense", 1);
  EXPECT_THROW(table_.add_job("bad", bad, 0.0, fx_), std::exception);
}

TEST_F(JobTableTest, MisspelledFactoryParamInAnyVariantIsRejectedAtSubmit) {
  // run::check_factories at submit: the last variant's typo fails the
  // submit itself, naming the variant and the key, before any lease exists.
  run::ExperimentSpec e = run::ExperimentSpec::from_json(sweep_echo());
  e.axes = {{"scheduler.params", {Json::parse(R"({"k": 2})"), Json::parse(R"({"kk": 2})")}}};
  try {
    table_.add_job("typo", e.to_json(), 0.0, fx_);
    FAIL() << "a misspelled scheduler param was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("variant 1"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("\"kk\""), std::string::npos) << e.what();
  }
  const std::uint64_t w = table_.worker_joined("a");
  EXPECT_FALSE(table_.request_lease(w, 0.0, fx_).has_value());
}

}  // namespace
}  // namespace cohesion::serve
