#include "run/spec.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <set>
#include <string>

#include "run/instantiate.hpp"

namespace cohesion::run {
namespace {

RunSpec sample_spec() {
  RunSpec s;
  s.name = "sample";
  s.n = 24;
  s.seed = 0xFEEDFACE12345678ull;
  s.algorithm = {.type = "kknps", .params = Json::parse(R"({"k": 3, "distance_delta": 0.05})")};
  s.scheduler = {.type = "kasync", .params = Json::parse(R"({"k": 3, "xi": 0.4})")};
  s.error = {.type = "noisy", .params = Json::parse(R"({"skew_lambda": 0.1})")};
  s.initial = {.type = "random", .params = Json::parse(R"({"world_radius": 2.0})")};
  s.visibility_radius = 1.5;
  s.open_ball = true;
  s.multiplicity_detection = true;
  s.stop.epsilon = 0.08;
  s.stop.max_activations = 1234;
  s.stop.check_every = 32;
  s.stop.max_time = 75.5;
  return s;
}

TEST(RunSpec, JsonRoundTripIsExact) {
  const RunSpec s = sample_spec();
  const Json j = s.to_json();
  const RunSpec back = RunSpec::from_json(j);
  // Round trip through JSON text, compare the canonical serializations.
  EXPECT_EQ(back.to_json().dump(), j.dump());
  EXPECT_EQ(Json::parse(j.dump(2)).dump(), j.dump());
  EXPECT_EQ(back.seed, s.seed);  // 64-bit seed survives
  EXPECT_EQ(back.stop.max_activations, 1234u);
  EXPECT_DOUBLE_EQ(back.stop.max_time, 75.5);
  EXPECT_TRUE(back.open_ball);
}

TEST(RunSpec, DefaultsApplyForAbsentFields) {
  const RunSpec s = RunSpec::from_json(Json::parse(R"({"n": 5})"));
  EXPECT_EQ(s.n, 5u);
  EXPECT_EQ(s.algorithm.type, "kknps");
  EXPECT_EQ(s.scheduler.type, "kasync");
  EXPECT_DOUBLE_EQ(s.visibility_radius, 1.0);
  EXPECT_DOUBLE_EQ(s.stop.epsilon, 0.05);
}

TEST(RunSpec, DefaultSpecBytesAndIdentityArePinned) {
  // Literal bytes of the default spec, and its run identity, as emitted
  // while the two retired engine switches were still RunSpec fields: the
  // constant emission must keep every spec, fingerprint and cache key.
  EXPECT_EQ(RunSpec{}.to_json().dump(),
            R"({"name":"run","n":16,"seed":1,"algorithm":{"type":"kknps"},)"
            R"("scheduler":{"type":"kasync"},"error":{"type":"noisy"},)"
            R"("initial":{"type":"random"},)"
            R"("visibility":{"radius":1.0,"open_ball":false,"multiplicity":false},)"
            R"("use_spatial_index":true,"incremental_index":true,)"
            R"("stop":{"epsilon":0.05,"max_activations":200000,"check_every":64,"max_time":0.0}})");
  EXPECT_EQ(fingerprint_hex(run_identity(RunSpec{})), "0bbf861335e3e720");
}

/// RunSpec::from_json's error text, or "" when it parses.
std::string from_json_error(const Json& doc) {
  try {
    (void)RunSpec::from_json(doc);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(RunSpec, UnknownVisibilityOrStopKeyNamesPathAndNearestKey) {
  // Before, a typo ran the default: "radus" gave V = 1 and exit 0.
  const std::string vis = from_json_error(Json::parse(R"({"visibility": {"radus": 0.5}})"));
  EXPECT_NE(vis.find("\"visibility.radus\""), std::string::npos) << vis;
  EXPECT_NE(vis.find("\"visibility.radius\""), std::string::npos) << vis;

  const std::string stop =
      from_json_error(Json::parse(R"({"stop": {"epsilon": 0.1, "max_activation": 10}})"));
  EXPECT_NE(stop.find("\"stop.max_activation\""), std::string::npos) << stop;
  EXPECT_NE(stop.find("\"stop.max_activations\""), std::string::npos) << stop;

  // A block that is not an object is an error too, not a silent default.
  EXPECT_NE(from_json_error(Json::parse(R"({"visibility": 0.5})")), "");
  EXPECT_NE(from_json_error(Json::parse(R"({"stop": [1]})")), "");
}

TEST(RunSpec, RetiredIndexFlagsAcceptOnlyTrue) {
  // Absent or the surviving value: the one snapshot feed and kernel, same
  // spec as the default (soa_kernel is never echoed).
  for (const char* doc : {R"({})", R"({"use_spatial_index": true, "incremental_index": true})",
                          R"({"soa_kernel": false})"}) {
    EXPECT_EQ(RunSpec::from_json(Json::parse(doc)).to_json().dump(), RunSpec{}.to_json().dump());
  }
  // The retired value selected a path the product no longer has: an error
  // naming the key (and, for the index flags, the oracle), never a silent
  // default.
  struct Row {
    std::string key;
    bool retired;
    const char* names;
  };
  for (const Row& row : {Row{"use_spatial_index", false, "tests/oracles/engine_oracle.hpp"},
                         Row{"incremental_index", false, "tests/oracles/engine_oracle.hpp"},
                         Row{"soa_kernel", true, "scalar filter"}}) {
    Json doc = Json::object();
    doc.set(row.key, row.retired);
    const std::string what = from_json_error(doc);
    EXPECT_NE(what.find("\"" + row.key + "\""), std::string::npos) << what;
    EXPECT_NE(what.find(row.names), std::string::npos) << what;
    Json experiment = Json::object();
    experiment.set("base", doc);
    try {
      (void)ExperimentSpec::from_json(experiment);
      ADD_FAILURE() << row.key << ": retired value accepted inside an experiment base";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("\"base." + row.key + "\""), std::string::npos)
          << e.what();
    }
  }
}

TEST(RunSpec, UnknownTopLevelOrTraceKeyNamesPathAndNearestKey) {
  // Before, "stopp" ran the default stop rule and exit 0.
  const std::string top = from_json_error(Json::parse(R"({"stopp": {"epsilon": 0.1}})"));
  EXPECT_NE(top.find("unknown key \"stopp\""), std::string::npos) << top;
  EXPECT_NE(top.find("nearest known: \"stop\""), std::string::npos) << top;

  const std::string trace =
      from_json_error(Json::parse(R"({"trace": {"mode": "stream", "pth": "x.cohtrace"}})"));
  EXPECT_NE(trace.find("\"trace.pth\""), std::string::npos) << trace;
  EXPECT_NE(trace.find("\"trace.path\""), std::string::npos) << trace;
}

TEST(RunSpec, EveryEmittedKeyParses) {
  // to_json() output must stay parseable: checkpoints, cache entries and
  // shard files all carry it.
  RunSpec s = sample_spec();
  s.trace.mode = "stream";
  s.trace.path = "x.cohtrace";
  EXPECT_EQ(from_json_error(s.to_json()), "");
  EXPECT_EQ(from_json_error(RunSpec{}.to_json()), "");
}

TEST(RunSpec, RejectsNonPositiveOrNonFiniteRadius) {
  for (const double r : {0.0, -0.0, -1.0, std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    Json doc = Json::object();
    Json vis = Json::object();
    vis.set("radius", r);
    doc.set("visibility", vis);
    const std::string what = from_json_error(doc);
    EXPECT_NE(what.find("visibility.radius"), std::string::npos) << r << ": " << what;
  }
  EXPECT_EQ(from_json_error(Json::parse(R"({"visibility": {"radius": 1e-3}})")), "");
}

TEST(RunSpec, CheckedInSpecsStillLoad) {
  // Every spec shipped with the repository parses and expands under the
  // strict schema, and every expanded run instantiates, so the factories'
  // strict params accept it too.
  const std::filesystem::path root = std::filesystem::path(__FILE__).parent_path() / "../..";
  std::size_t loaded = 0;
  for (const char* dir : {"bench/specs", "perfbench/specs"}) {
    for (const auto& entry : std::filesystem::directory_iterator(root / dir)) {
      if (entry.path().extension() != ".json") continue;
      const Json doc = Json::parse_file(entry.path().string());
      SCOPED_TRACE(entry.path().string());
      EXPECT_NO_THROW({
        if (doc.contains("base")) {
          for (const ExpandedRun& run : ExperimentSpec::from_json(doc).expand()) {
            (void)instantiate(run.spec);
          }
        } else {
          (void)instantiate(RunSpec::from_json(doc));
        }
      });
      ++loaded;
    }
  }
  EXPECT_GE(loaded, 5u);
}

TEST(RunSpec, FactoryShorthandString) {
  const RunSpec s = RunSpec::from_json(Json::parse(R"({"scheduler": "fsync"})"));
  EXPECT_EQ(s.scheduler.type, "fsync");
}

TEST(ExperimentSpec, JsonRoundTrip) {
  ExperimentSpec e;
  e.name = "sweep";
  e.base = sample_spec();
  e.repeats = 4;
  e.axes.push_back({"scheduler.params.k", {Json(1), Json(2), Json(4)}});
  e.axes.push_back({"n", {Json(8), Json(16)}});
  const Json j = e.to_json();
  const ExperimentSpec back = ExperimentSpec::from_json(j);
  EXPECT_EQ(back.to_json().dump(), j.dump());
  EXPECT_EQ(back.repeats, 4u);
  ASSERT_EQ(back.axes.size(), 2u);
  EXPECT_EQ(back.axes[0].path, "scheduler.params.k");
  EXPECT_EQ(back.axes[1].values.size(), 2u);
  // A disabled early-stop rule is absent from the JSON and stays disabled.
  EXPECT_FALSE(j.contains("early_stop"));
  EXPECT_FALSE(back.early_stop.enabled());
}

TEST(ExperimentSpec, EarlyStopRoundTripsExactly) {
  ExperimentSpec e;
  e.base = sample_spec();
  e.repeats = 8;
  e.early_stop.window = 3;
  e.early_stop.epsilon = 0.015;
  e.early_stop.metric = "rounds";
  const Json j = e.to_json();
  ASSERT_TRUE(j.contains("early_stop"));
  const ExperimentSpec back = ExperimentSpec::from_json(j);
  EXPECT_EQ(back.to_json().dump(), j.dump());  // fixed point (shard merge relies on it)
  EXPECT_EQ(back.early_stop.window, 3u);
  EXPECT_DOUBLE_EQ(back.early_stop.epsilon, 0.015);
  EXPECT_EQ(back.early_stop.metric, "rounds");
  // Partial early_stop objects take defaults for the rest.
  const ExperimentSpec partial = ExperimentSpec::from_json(
      Json::parse(R"({"base": {"n": 4}, "early_stop": {"window": 2}})"));
  EXPECT_EQ(partial.early_stop.window, 2u);
  EXPECT_EQ(partial.early_stop.metric, "final_diameter");
  EXPECT_THROW(ExperimentSpec::from_json(
                   Json::parse(R"({"base": {"n": 4}, "early_stop": 3})")),
               std::runtime_error);
}

/// ExperimentSpec::from_json's error text, or "" when it parses.
std::string experiment_error(const char* doc) {
  try {
    (void)ExperimentSpec::from_json(Json::parse(doc));
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(ExperimentSpec, UnknownKeyAtAnyLevelNamesPathAndNearestKey) {
  struct Case {
    const char* doc;
    const char* key;
    const char* nearest;
  };
  const Case cases[] = {
      {R"({"base": {}, "repeat": 4})", "\"repeat\"", "\"repeats\""},
      {R"({"base": {"stopp": {}}})", "\"base.stopp\"", "\"base.stop\""},
      {R"({"base": {"visibility": {"radus": 2}}})", "\"base.visibility.radus\"",
       "\"base.visibility.radius\""},
      {R"({"base": {"trace": {"flush_evry": 8}}})", "\"base.trace.flush_evry\"",
       "\"base.trace.flush_every\""},
      {R"({"base": {}, "early_stop": {"windw": 3}})", "\"early_stop.windw\"",
       "\"early_stop.window\""},
      {R"({"base": {}, "sweep": [{"path": "n", "values": [4]}, {"path": "n", "value": [8]}]})",
       "\"sweep[1].value\"", "\"sweep[1].values\""},
  };
  for (const Case& c : cases) {
    const std::string what = experiment_error(c.doc);
    EXPECT_NE(what.find(std::string("unknown key ") + c.key), std::string::npos) << what;
    EXPECT_NE(what.find(std::string("nearest known: ") + c.nearest), std::string::npos) << what;
  }
  // A sweep axis that is not an object is an error too.
  EXPECT_NE(experiment_error(R"({"base": {}, "sweep": [3]})"), "");
  // A sweep path into a key the schema does not know fails at expansion.
  ExperimentSpec e;
  e.axes.push_back({"stopp.epsilon", {Json(0.1)}});
  EXPECT_THROW((void)e.expand(), std::runtime_error);
}

TEST(ExperimentSpec, ExpansionGridOrderAndOverrides) {
  ExperimentSpec e;
  e.base.seed = 7;
  e.repeats = 2;
  e.axes.push_back({"scheduler.params.k", {Json(1), Json(2)}});
  e.axes.push_back({"n", {Json(8), Json(16), Json(32)}});
  const auto runs = e.expand();
  ASSERT_EQ(runs.size(), 2u * 3u * 2u);
  EXPECT_EQ(e.variant_count(), 6u);

  // First axis outermost, repeats innermost; indices are contiguous.
  EXPECT_EQ(runs[0].spec.scheduler.params.uint_or("k", 0), 1u);
  EXPECT_EQ(runs[0].spec.n, 8u);
  EXPECT_EQ(runs[0].label, "k=1,n=8");
  EXPECT_EQ(runs[1].variant, 0u);
  EXPECT_EQ(runs[1].repeat, 1u);
  EXPECT_EQ(runs[2].spec.n, 16u);
  EXPECT_EQ(runs[6].spec.scheduler.params.uint_or("k", 0), 2u);
  EXPECT_EQ(runs[6].spec.n, 8u);
  for (std::size_t i = 0; i < runs.size(); ++i) EXPECT_EQ(runs[i].index, i);
}

/// The error text of `call`, or "" when it returns.
template <typename F>
std::string error_of(F call) {
  try {
    (void)call();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(ExperimentSpec, GridSizeOverflowIsRejectedNamingTheAxisOrRepeats) {
  // 64 two-valued axes are 2^64 grid points: an unchecked product wraps to
  // 0 and the sweep would run nothing. Every size query names the axis.
  ExperimentSpec e;
  for (int a = 0; a < 64; ++a) e.axes.push_back({"seed", {Json(1), Json(2)}});
  for (const std::string& what :
       {error_of([&] { return e.variant_count(); }), error_of([&] { return e.run_count(); }),
        error_of([&] { return e.expand(); }), error_of([&] { return e.expand_shard(0, 2); })}) {
    EXPECT_NE(what.find("sweep[63] (\"seed\") overflows the variant count"), std::string::npos)
        << what;
  }

  // 63 axes fit; doubling them through `repeats` does not.
  e.axes.pop_back();
  EXPECT_EQ(e.variant_count(), std::size_t{1} << 63);
  EXPECT_EQ(e.run_count(), std::size_t{1} << 63);
  e.repeats = 2;
  EXPECT_NE(error_of([&] { return e.run_count(); }).find("repeats = 2"), std::string::npos);
  EXPECT_NE(error_of([&] { return e.expand(); }).find("overflows the run count"),
            std::string::npos);
  // A count that fits but cannot be held is named too (no allocation is
  // attempted: it exceeds the vector's max_size).
  e.repeats = 1;
  EXPECT_NE(error_of([&] { return e.expand(); })
                .find("expands to 9223372036854775808 runs, more than this process can hold"),
            std::string::npos);

  // An empty axis is named by index as well.
  ExperimentSpec empty;
  empty.axes.push_back({"n", {Json(4)}});
  empty.axes.push_back({"seed", {}});
  EXPECT_NE(error_of([&] { return empty.variant_count(); })
                .find("sweep[1] (\"seed\") has no values"),
            std::string::npos);
}

TEST(ExperimentSpec, RootMergeAxisAppliesNestedOverrides) {
  ExperimentSpec e;
  e.base = sample_spec();
  Json variant = Json::parse(
      R"({"label": "big", "n": 64, "stop": {"max_activations": 9999},
          "algorithm": {"params": {"k": 9}}})");
  e.axes.push_back({"", {variant}});
  const auto runs = e.expand();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].label, "big");
  EXPECT_EQ(runs[0].spec.n, 64u);
  EXPECT_EQ(runs[0].spec.stop.max_activations, 9999u);
  // Nested merge: k overridden, sibling param distance_delta preserved.
  EXPECT_EQ(runs[0].spec.algorithm.params.uint_or("k", 0), 9u);
  EXPECT_DOUBLE_EQ(runs[0].spec.algorithm.params.number_or("distance_delta", 0), 0.05);
  // stop.epsilon preserved through the partial stop override.
  EXPECT_DOUBLE_EQ(runs[0].spec.stop.epsilon, 0.08);
}

TEST(Seeds, DerivationIsDeterministicDecorrelatedAndThreadCountFree) {
  // Pure function of (experiment seed, run index).
  const RunSeeds a = derive_seeds(42, 0);
  const RunSeeds b = derive_seeds(42, 0);
  EXPECT_EQ(a.run, b.run);
  EXPECT_EQ(a.engine, b.engine);
  EXPECT_EQ(a.scheduler, b.scheduler);
  EXPECT_EQ(a.initial, b.initial);

  // All streams distinct across a sweep's worth of runs and components.
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 256; ++i) {
    const RunSeeds s = derive_seeds(42, i);
    seen.insert(s.run);
    seen.insert(s.engine);
    seen.insert(s.scheduler);
    seen.insert(s.initial);
  }
  EXPECT_EQ(seen.size(), 4u * 256u);

  // Nearby experiment seeds do not collide either.
  for (std::uint64_t i = 0; i < 256; ++i) {
    const RunSeeds s = derive_seeds(43, i);
    seen.insert(s.run);
    seen.insert(s.engine);
    seen.insert(s.scheduler);
    seen.insert(s.initial);
  }
  EXPECT_EQ(seen.size(), 8u * 256u);

  // Expansion pins the derived run seed, and streams re-derive from it.
  ExperimentSpec e;
  e.base.seed = 42;
  e.repeats = 3;
  const auto runs = e.expand();
  EXPECT_EQ(runs[2].spec.seed, derive_seeds(42, 2).run);
  EXPECT_EQ(seed_streams(runs[2].spec.seed).engine, derive_seeds(42, 2).engine);
}

TEST(Seeds, SweepAxisMayPinTheSeedItself) {
  ExperimentSpec e;
  e.base.seed = 42;
  e.axes.push_back({"seed", {Json(1000), Json(2000)}});
  const auto runs = e.expand();
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].spec.seed, 1000u);  // honored, not re-derived
  EXPECT_EQ(runs[1].spec.seed, 2000u);
}

TEST(ApplyOverride, CreatesIntermediateObjectsAndRejectsBadPaths) {
  Json doc = Json::parse(R"({"a": 1})");
  apply_override(doc, "b.c.d", Json(5));
  EXPECT_EQ(doc.at("b").at("c").at("d").as_uint(), 5u);
  EXPECT_THROW(apply_override(doc, "a.x", Json(1)), std::runtime_error);  // descends into number
  EXPECT_THROW(apply_override(doc, "", Json(3)), std::runtime_error);     // root needs object
  EXPECT_THROW(apply_override(doc, "..", Json(3)), std::runtime_error);   // empty segment
}

}  // namespace
}  // namespace cohesion::run
