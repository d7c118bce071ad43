#include "run/shard.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

namespace cohesion::run {
namespace {

/// The shard/merge counterpart of batch_runner_test's small_sweep: 3
/// scheduler-k variants x 3 repeats = 9 runs, each a few thousand
/// activations.
ExperimentSpec sharded_sweep() {
  ExperimentSpec e;
  e.name = "sharded";
  e.base.n = 8;
  e.base.seed = 2024;
  e.base.algorithm = {.type = "kknps", .params = Json::parse(R"({"k": 2})")};
  e.base.scheduler = {.type = "kasync", .params = Json::parse(R"({"xi": 0.5})")};
  e.base.initial = {.type = "line", .params = Json::parse(R"({"spacing": 0.9})")};
  e.base.stop.epsilon = 0.05;
  e.base.stop.max_activations = 20000;
  e.repeats = 3;
  e.axes.push_back({"scheduler.params.k", {Json(1), Json(2), Json(3)}});
  return e;
}

TEST(Shard, ParseAcceptsIOverNAndRejectsEverythingElse) {
  const Shard s = Shard::parse("2/5");
  EXPECT_EQ(s.index, 2u);
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(Shard::parse("0/1").count, 1u);
  EXPECT_THROW(Shard::parse("3/3"), std::runtime_error);   // 0-based: index < count
  EXPECT_THROW(Shard::parse("1/0"), std::runtime_error);
  EXPECT_THROW(Shard::parse("1"), std::runtime_error);
  EXPECT_THROW(Shard::parse("a/3"), std::runtime_error);
  EXPECT_THROW(Shard::parse("1/"), std::runtime_error);
  EXPECT_THROW(Shard::parse("/3"), std::runtime_error);
  EXPECT_THROW(Shard::parse("-1/3"), std::runtime_error);
  // A count past 2^64 must not wrap (to 0/1: the whole sweep as one shard).
  EXPECT_THROW(Shard::parse("0/18446744073709551617"), std::runtime_error);
}

TEST(Shard, UnionOverShardsIsExactlyTheSingleProcessGrid) {
  const ExperimentSpec e = sharded_sweep();
  const std::vector<ExpandedRun> all = e.expand();
  for (const std::size_t count : {1u, 2u, 3u, 5u, 8u}) {
    std::vector<std::vector<ExpandedRun>> shards;
    for (std::size_t s = 0; s < count; ++s) shards.push_back(e.expand_shard(s, count));
    std::map<std::size_t, const ExpandedRun*> seen;  // global index -> run
    for (std::size_t s = 0; s < count; ++s) {
      for (const ExpandedRun& run : shards[s]) {
        EXPECT_EQ(run.variant % count, s);  // the documented partition rule
        EXPECT_TRUE(seen.emplace(run.index, &run).second) << "duplicate index " << run.index;
      }
    }
    ASSERT_EQ(seen.size(), all.size()) << "N=" << count;
    for (const ExpandedRun& run : all) {
      const auto it = seen.find(run.index);
      ASSERT_NE(it, seen.end());
      // Same grid position and, critically, the same resolved spec bytes —
      // derived seeds are a function of the *global* index, so sharding
      // must not disturb them.
      EXPECT_EQ(it->second->spec.to_json().dump(), run.spec.to_json().dump());
      EXPECT_EQ(it->second->variant, run.variant);
      EXPECT_EQ(it->second->repeat, run.repeat);
      EXPECT_EQ(it->second->label, run.label);
    }
  }
  EXPECT_THROW(e.expand_shard(3, 3), std::runtime_error);
  EXPECT_THROW(e.expand_shard(0, 0), std::runtime_error);
}

TEST(Shard, VariantsStayWholeWithinOneShard) {
  const ExperimentSpec e = sharded_sweep();
  // Every repeat of a variant lands in the same shard, which is what lets
  // per-variant early stopping run under sharding.
  for (const std::size_t count : {2u, 3u}) {
    for (std::size_t s = 0; s < count; ++s) {
      std::map<std::size_t, std::size_t> repeats_of;
      for (const ExpandedRun& run : e.expand_shard(s, count)) ++repeats_of[run.variant];
      for (const auto& [variant, reps] : repeats_of) EXPECT_EQ(reps, e.repeats) << variant;
    }
  }
}

TEST(Shard, MergedPartialReportsAreByteIdenticalToSingleProcess) {
  const ExperimentSpec e = sharded_sweep();
  const BatchResult single = BatchRunner().run(e);
  const std::string expected = BatchRunner::report_json(e, single, false).dump(2);
  const std::size_t total = e.expand().size();

  for (const std::size_t count : {2u, 3u, 5u}) {
    std::vector<Json> partials;
    for (std::size_t s = 0; s < count; ++s) {
      const std::vector<ExpandedRun> runs = e.expand_shard(s, count);
      const BatchResult r = BatchRunner().run(runs, e.early_stop);
      partials.push_back(partial_report_json(e, Shard{s, count}, total, r.outcomes));
    }
    // Merge is order-insensitive; hand the shards over rotated.
    std::rotate(partials.begin(), partials.begin() + 1, partials.end());
    EXPECT_EQ(merge_partial_reports(partials).dump(2), expected) << "N=" << count;
  }
}

TEST(Shard, MergeSurvivesAJsonFileRoundTrip) {
  // The CLI path writes partials to disk and reparses them; dump -> parse
  // -> dump must be a fixed point for the merged bytes to match.
  const ExperimentSpec e = sharded_sweep();
  const BatchResult single = BatchRunner().run(e);
  const std::string expected = BatchRunner::report_json(e, single, false).dump(2);
  const std::size_t total = e.expand().size();

  std::vector<Json> partials;
  for (std::size_t s = 0; s < 3; ++s) {
    const BatchResult r = BatchRunner().run(e.expand_shard(s, 3), e.early_stop);
    const Json p = partial_report_json(e, Shard{s, 3}, total, r.outcomes);
    partials.push_back(Json::parse(p.dump(2)));
  }
  EXPECT_EQ(merge_partial_reports(partials).dump(2), expected);
}

TEST(Shard, MergeRejectsIncompleteOrInconsistentPartialSets) {
  const ExperimentSpec e = sharded_sweep();
  const std::size_t total = e.expand().size();
  std::vector<Json> partials;
  for (std::size_t s = 0; s < 3; ++s) {
    const BatchResult r = BatchRunner().run(e.expand_shard(s, 3), e.early_stop);
    partials.push_back(partial_report_json(e, Shard{s, 3}, total, r.outcomes));
  }

  EXPECT_THROW(merge_partial_reports({}), std::runtime_error);

  // Missing shard: error names which one.
  try {
    merge_partial_reports({partials[0], partials[2]});
    FAIL() << "expected missing-shard rejection";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what()).find("missing: 1"), std::string::npos) << err.what();
  }

  // Duplicate shard.
  EXPECT_THROW(merge_partial_reports({partials[0], partials[0], partials[1]}),
               std::runtime_error);

  // Partial from a different experiment.
  ExperimentSpec other = sharded_sweep();
  other.base.seed = 999;
  const BatchResult r0 = BatchRunner().run(other.expand_shard(0, 3), other.early_stop);
  std::vector<Json> mixed = partials;
  mixed[0] = partial_report_json(other, Shard{0, 3}, other.expand().size(), r0.outcomes);
  EXPECT_THROW(merge_partial_reports(mixed), std::runtime_error);

  // Not a partial report at all.
  EXPECT_THROW(merge_partial_reports({Json::parse(R"({"hello": 1})")}), std::runtime_error);
}

TEST(Shard, MoreShardsThanVariantsYieldsEmptyShards) {
  ExperimentSpec e = sharded_sweep();  // 3 variants
  const std::size_t total = e.expand().size();
  std::vector<Json> partials;
  for (std::size_t s = 0; s < 5; ++s) {
    const std::vector<ExpandedRun> runs = e.expand_shard(s, 5);
    if (s >= 3) EXPECT_TRUE(runs.empty());
    const BatchResult r = BatchRunner().run(runs, e.early_stop);
    partials.push_back(partial_report_json(e, Shard{s, 5}, total, r.outcomes));
  }
  const BatchResult single = BatchRunner().run(e);
  EXPECT_EQ(merge_partial_reports(partials).dump(2),
            BatchRunner::report_json(e, single, false).dump(2));
}

}  // namespace
}  // namespace cohesion::run
