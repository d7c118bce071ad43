// Unit layer of the fault-tolerant supervisor (the process-level matrix
// lives in launch_e2e_test.cpp): deterministic seeded backoff schedules,
// FaultPlan CLI parsing, attempt-supersedes merging of overlapping retry
// journals (against oracles/merge_attempts_oracle.hpp), and the
// heartbeat-side incremental journal reader.
#include "run/supervisor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "oracles/merge_attempts_oracle.hpp"
#include "run/batch_runner.hpp"
#include "serve/runner.hpp"

namespace cohesion::run {
namespace {

using oracles::merge_attempt_outcomes;
using serve::FaultPlan;
using serve::JournalRead;
using serve::JournalReader;

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(std::string(::testing::TempDir()) + name) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
}

/// A real (executed) outcome list to merge: 2 variants x 2 repeats of a
/// tiny sweep, so outcomes carry genuine report payloads whose bytes the
/// merge must preserve exactly.
std::vector<RunOutcome> executed_outcomes() {
  ExperimentSpec e;
  e.name = "merge-fixture";
  e.base.n = 6;
  e.base.seed = 7;
  e.base.algorithm = {.type = "kknps", .params = Json::parse(R"({"k": 2})")};
  e.base.scheduler = {.type = "kasync", .params = Json::parse(R"({"xi": 0.5})")};
  e.base.initial = {.type = "line", .params = Json::parse(R"({"spacing": 0.9})")};
  e.base.stop.epsilon = 0.05;
  e.base.stop.max_activations = 5000;
  e.repeats = 2;
  e.axes.push_back({"scheduler.params.k", {Json(1), Json(2)}});
  return BatchRunner().run(e).outcomes;
}

// --- RetryPolicy ------------------------------------------------------------

TEST(RetryPolicy, BackoffIsAPureFunctionOfSeedShardAndAttempt) {
  RetryPolicy p;
  // Same inputs, same schedule — across calls and across instances.
  for (std::size_t shard = 0; shard < 4; ++shard) {
    for (std::size_t attempt = 1; attempt <= 5; ++attempt) {
      EXPECT_EQ(p.backoff_seconds(shard, attempt), RetryPolicy{}.backoff_seconds(shard, attempt));
    }
  }
  // The seed matters: a different jitter_seed reshuffles the schedule.
  RetryPolicy reseeded = p;
  reseeded.jitter_seed = 0xdeadbeefull;
  EXPECT_NE(p.backoff_seconds(1, 1), reseeded.backoff_seconds(1, 1));
  // Shards that died together relaunch at different times.
  EXPECT_NE(p.backoff_seconds(0, 1), p.backoff_seconds(1, 1));
}

TEST(RetryPolicy, BackoffGrowsExponentiallyWithinJitterBounds) {
  RetryPolicy p;
  p.base_delay_seconds = 1.0;
  p.multiplier = 2.0;
  p.max_delay_seconds = 8.0;
  p.jitter = 0.5;
  for (std::size_t shard = 0; shard < 3; ++shard) {
    double previous_floor = 0.0;
    for (std::size_t attempt = 1; attempt <= 6; ++attempt) {
      // Un-jittered delay doubles per attempt and saturates at the cap.
      const double floor = std::min(p.max_delay_seconds, 1.0 * (1 << (attempt - 1)));
      const double d = p.backoff_seconds(shard, attempt);
      EXPECT_GE(d, floor) << "shard " << shard << " attempt " << attempt;
      EXPECT_LE(d, floor * (1.0 + p.jitter)) << "shard " << shard << " attempt " << attempt;
      EXPECT_GE(floor, previous_floor);
      previous_floor = floor;
    }
  }
}

TEST(RetryPolicy, ZeroJitterIsExactExponentialBackoff) {
  RetryPolicy p;
  p.base_delay_seconds = 0.5;
  p.multiplier = 3.0;
  p.max_delay_seconds = 100.0;
  p.jitter = 0.0;
  EXPECT_DOUBLE_EQ(p.backoff_seconds(2, 1), 0.5);
  EXPECT_DOUBLE_EQ(p.backoff_seconds(2, 2), 1.5);
  EXPECT_DOUBLE_EQ(p.backoff_seconds(2, 3), 4.5);
  p.max_delay_seconds = 2.0;
  EXPECT_DOUBLE_EQ(p.backoff_seconds(2, 3), 2.0);  // capped before jitter
}

// --- FaultPlan --------------------------------------------------------------

TEST(FaultPlan, ParseReadsTheCliFormWithDefaults) {
  const FaultPlan kill = FaultPlan::parse("kill:shard=1,after=3");
  EXPECT_EQ(kill.kind, FaultPlan::Kind::kill);
  EXPECT_EQ(kill.shard, 1u);
  EXPECT_EQ(kill.attempt, 1u);  // default: sabotage the first launch
  EXPECT_EQ(kill.after_lines, 3u);

  const FaultPlan stall = FaultPlan::parse("stall:shard=0,attempt=2");
  EXPECT_EQ(stall.kind, FaultPlan::Kind::stall);
  EXPECT_EQ(stall.attempt, 2u);
  EXPECT_EQ(stall.after_lines, 0u);  // default: arm immediately

  const FaultPlan corrupt = FaultPlan::parse("corrupt:shard=2,attempt=1,after=1");
  EXPECT_EQ(corrupt.kind, FaultPlan::Kind::corrupt);
  EXPECT_EQ(corrupt.shard, 2u);
  EXPECT_EQ(corrupt.after_lines, 1u);
}

TEST(FaultPlan, DescribeRoundTripsThroughParse) {
  for (const char* text : {"kill:shard=1,after=3", "stall:shard=0,attempt=2",
                           "corrupt:shard=2,attempt=3,after=5"}) {
    const FaultPlan plan = FaultPlan::parse(text);
    const FaultPlan reparsed = FaultPlan::parse(plan.describe());
    EXPECT_EQ(reparsed.kind, plan.kind) << text;
    EXPECT_EQ(reparsed.shard, plan.shard) << text;
    EXPECT_EQ(reparsed.attempt, plan.attempt) << text;
    EXPECT_EQ(reparsed.after_lines, plan.after_lines) << text;
  }
}

TEST(FaultPlan, ParseRejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse(""), std::runtime_error);
  EXPECT_THROW(FaultPlan::parse("kill"), std::runtime_error);          // no shard
  EXPECT_THROW(FaultPlan::parse("explode:shard=1"), std::runtime_error);
  // 2^64 must not wrap to shard 0 (and kill it).
  EXPECT_THROW(FaultPlan::parse("kill:shard=18446744073709551616"), std::runtime_error);
  EXPECT_THROW(FaultPlan::parse("kill:after=3"), std::runtime_error);  // shard required
  EXPECT_THROW(FaultPlan::parse("kill:shard=x"), std::runtime_error);
  EXPECT_THROW(FaultPlan::parse("kill:shard=1,bogus=2"), std::runtime_error);
  EXPECT_THROW(FaultPlan::parse("kill:shard=1,attempt=0"), std::runtime_error);  // 1-based
}

// --- merge_attempt_outcomes -------------------------------------------------

TEST(MergeAttempts, DisjointAttemptsUnionAndSortByIndex) {
  const std::vector<RunOutcome> all = executed_outcomes();
  ASSERT_EQ(all.size(), 4u);
  // Attempt 1 journaled runs {2, 0}; the retry picked up {1, 3}.
  const std::vector<RunOutcome> merged =
      merge_attempt_outcomes({{all[2], all[0]}, {all[1], all[3]}});
  ASSERT_EQ(merged.size(), 4u);
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].index, i);
    EXPECT_EQ(merged[i].to_json().dump(), all[i].to_json().dump());
  }
}

TEST(MergeAttempts, IdenticalCompletedDuplicatesCollapseToOne) {
  const std::vector<RunOutcome> all = executed_outcomes();
  // The retry re-ran runs the dead attempt had already journaled — the
  // normal overlap when a worker dies between fsync and its partial report.
  const std::vector<RunOutcome> merged =
      merge_attempt_outcomes({{all[0], all[1]}, {all[1], all[2], all[3]}});
  ASSERT_EQ(merged.size(), 4u);
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].to_json().dump(), all[i].to_json().dump());
  }
}

TEST(MergeAttempts, ConflictingCompletedOutcomesAreRejectedNamingTheIndex) {
  std::vector<RunOutcome> all = executed_outcomes();
  RunOutcome tampered = all[1];
  tampered.seed ^= 1;  // same index, different bytes: not the same run
  try {
    merge_attempt_outcomes({{all[0], all[1]}, {tampered}});
    FAIL() << "expected conflict rejection";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what()).find("index 1"), std::string::npos) << err.what();
  }
}

TEST(MergeAttempts, CompletedSupersedesErroredInEitherDirection) {
  const std::vector<RunOutcome> all = executed_outcomes();
  RunOutcome errored = all[0];
  errored.error = "engine: transient wobble";

  // Error first, completion on retry: the completed outcome wins.
  std::vector<RunOutcome> merged = merge_attempt_outcomes({{errored}, {all[0]}});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_TRUE(merged[0].error.empty());
  EXPECT_EQ(merged[0].to_json().dump(), all[0].to_json().dump());

  // Completion first, error on a (redundant) later attempt: the completed
  // outcome still wins — runs are deterministic, the error was environmental.
  merged = merge_attempt_outcomes({{all[0]}, {errored}});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_TRUE(merged[0].error.empty());
}

TEST(MergeAttempts, BetweenTwoErrorsTheLaterAttemptWins) {
  const std::vector<RunOutcome> all = executed_outcomes();
  RunOutcome first = all[2];
  first.error = "first failure";
  RunOutcome second = all[2];
  second.error = "second failure";
  const std::vector<RunOutcome> merged = merge_attempt_outcomes({{first}, {second}});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].error, "second failure");
}

TEST(MergeAttempts, EmptyInputYieldsEmptyOutput) {
  EXPECT_TRUE(merge_attempt_outcomes({}).empty());
  EXPECT_TRUE(merge_attempt_outcomes({{}, {}}).empty());
}

// --- JournalReader ----------------------------------------------------------

TEST(JournalReader, ReadsCompleteLinesSkipsHeaderTornTailAndGarbage) {
  const std::vector<RunOutcome> all = executed_outcomes();
  TempFile journal("supervisor_reader.ckpt");
  std::string content =
      R"({"format": "cohesion-checkpoint/1", "fingerprint": "f", "total_runs": 4})";
  content += "\n";
  content += all[0].to_json().dump() + "\n";
  content += "this line is not json\n";  // mid-write weirdness: skipped
  content += all[1].to_json().dump() + "\n";
  content += R"({"index": 3, "variant": 1, "repe)";  // torn tail, no newline
  write_file(journal.path(), content);

  const JournalRead read = JournalReader(journal.path()).next();
  ASSERT_TRUE(read.found);
  const std::vector<RunOutcome>& outcomes = read.fresh;
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].to_json().dump(), all[0].to_json().dump());
  EXPECT_EQ(outcomes[1].to_json().dump(), all[1].to_json().dump());
}

TEST(JournalReader, MissingOrEmptyFileReportsNoJournal) {
  EXPECT_FALSE(JournalReader(std::string(::testing::TempDir()) + "no_such.ckpt").next().found);
  TempFile empty("supervisor_reader_empty.ckpt");
  write_file(empty.path(), "");
  const JournalRead read = JournalReader(empty.path()).next();
  EXPECT_FALSE(read.found);
  EXPECT_TRUE(read.fresh.empty());
}

TEST(JournalReader, EachReadReturnsOnlyWhatWasAppendedSinceTheLastCompleteLine) {
  const std::vector<RunOutcome> all = executed_outcomes();
  TempFile journal("supervisor_reader_steps.ckpt");
  const std::string header =
      R"({"format": "cohesion-checkpoint/1", "fingerprint": "f", "total_runs": 4})";
  const std::string line2 = all[2].to_json().dump() + "\n";
  std::string content = header + "\n" + all[0].to_json().dump() + "\n";
  write_file(journal.path(), content);
  JournalReader reader(journal.path());

  JournalRead read = reader.next();
  ASSERT_TRUE(read.found);
  EXPECT_EQ(read.bytes, content.size());
  EXPECT_EQ(read.outcome_lines, 1u);
  ASSERT_EQ(read.fresh.size(), 1u);
  EXPECT_EQ(read.fresh[0].to_json().dump(), all[0].to_json().dump());

  // One more line plus the first half of the next: only the complete line
  // is fresh; the torn tail counts in the bytes but is not consumed.
  content += all[1].to_json().dump() + "\n" + line2.substr(0, line2.size() / 2);
  write_file(journal.path(), content);
  read = reader.next();
  EXPECT_EQ(read.bytes, content.size());
  EXPECT_EQ(read.outcome_lines, 2u);
  ASSERT_EQ(read.fresh.size(), 1u);
  EXPECT_EQ(read.fresh[0].to_json().dump(), all[1].to_json().dump());

  // The tail completes: the whole line is read once, from its start.
  content += line2.substr(line2.size() / 2);
  write_file(journal.path(), content);
  read = reader.next();
  EXPECT_EQ(read.bytes, content.size());
  EXPECT_EQ(read.outcome_lines, 3u);
  ASSERT_EQ(read.fresh.size(), 1u);
  EXPECT_EQ(read.fresh[0].to_json().dump(), all[2].to_json().dump());

  // No growth, nothing fresh; the totals stand.
  read = reader.next();
  EXPECT_TRUE(read.found);
  EXPECT_EQ(read.bytes, content.size());
  EXPECT_EQ(read.outcome_lines, 3u);
  EXPECT_TRUE(read.fresh.empty());
}

}  // namespace
}  // namespace cohesion::run
