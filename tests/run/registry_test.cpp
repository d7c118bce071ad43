#include "run/registry.hpp"

#include <gtest/gtest.h>

#include "algo/kknps.hpp"
#include "run/instantiate.hpp"
#include "run/spec.hpp"

namespace cohesion::run {
namespace {

TEST(Registry, BuiltinAlgorithmKeys) {
  for (const char* key : {"kknps", "kknps3d", "ando", "katreniak", "cog", "gcm", "null",
                          "lens_midpoint"}) {
    const auto algo = algorithms().get(key)(Json::object());
    ASSERT_NE(algo, nullptr) << key;
    EXPECT_FALSE(algo->name().empty());
  }
}

TEST(Registry, BuiltinSchedulerKeys) {
  for (const char* key : {"fsync", "ssync", "kasync", "async", "knesta"}) {
    const auto sched = schedulers().get(key)(4, 7, Json::object());
    ASSERT_NE(sched, nullptr) << key;
  }
  // scripted needs its script param.
  const Json params = Json::parse(R"({"script": [[0, 0.0, 0.1, 0.5, 1.0]]})");
  EXPECT_NE(schedulers().get("scripted")(2, 7, params), nullptr);
}

TEST(Registry, BuiltinErrorAndInitialKeys) {
  EXPECT_FALSE(errors().get("exact")(Json::object()).random_rotation);
  EXPECT_TRUE(errors().get("noisy")(Json::object()).random_rotation);
  for (const char* key : {"line", "grid", "circle", "random", "two_cluster"}) {
    EXPECT_EQ(initials().get(key)(12, 1.0, 5, Json::object()).size(), 12u) << key;
  }
  // spiral dictates its own robot count.
  EXPECT_GT(initials().get("spiral")(1, 1.0, 5, Json::object()).size(), 3u);
}

TEST(Registry, UnknownKeyThrowsListingKnownKeys) {
  try {
    (void)algorithms().get("no_such_algorithm");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no_such_algorithm"), std::string::npos);
    EXPECT_NE(what.find("kknps"), std::string::npos);  // lists registered keys
  }
  EXPECT_THROW((void)schedulers().get("bogus"), std::runtime_error);
  EXPECT_THROW((void)errors().get("bogus"), std::runtime_error);
  EXPECT_THROW((void)initials().get("bogus"), std::runtime_error);
}

TEST(Registry, ParamsReachTheFactory) {
  const Json params = Json::parse(R"({"k": 4, "distance_delta": 0.05})");
  const auto algo = algorithms().get("kknps")(params);
  const auto* kknps = dynamic_cast<const algo::KknpsAlgorithm*>(algo.get());
  ASSERT_NE(kknps, nullptr);
  EXPECT_EQ(kknps->params().k, 4u);
  EXPECT_DOUBLE_EQ(kknps->params().distance_delta, 0.05);
}

TEST(Registry, UserRegistrationAndOverride) {
  auto& reg = initials();
  reg.add("three_in_a_row", [](std::size_t, double, std::uint64_t, const Json&) {
    return std::vector<geom::Vec2>{{0, 0}, {1, 0}, {2, 0}};
  });
  EXPECT_TRUE(reg.contains("three_in_a_row"));
  EXPECT_EQ(reg.get("three_in_a_row")(99, 1.0, 1, Json::object()).size(), 3u);
  // Re-registration replaces.
  reg.add("three_in_a_row", [](std::size_t, double, std::uint64_t, const Json&) {
    return std::vector<geom::Vec2>{{0, 0}};
  });
  EXPECT_EQ(reg.get("three_in_a_row")(99, 1.0, 1, Json::object()).size(), 1u);
}

TEST(Registry, KAsyncRejectsUnknownParamNamingNearestKey) {
  for (const char* key : {"kasync", "async"}) {
    try {
      (void)schedulers().get(key)(4, 7, Json::parse(R"({"k": 2, "heap_selecton": true})"));
      FAIL() << key << ": expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(key), std::string::npos) << what;
      EXPECT_NE(what.find("\"heap_selecton\""), std::string::npos) << what;
      EXPECT_NE(what.find("\"heap_selection\""), std::string::npos) << what;
    }
  }
  // Every documented param is accepted, by both factories.
  const Json all = Json::parse(
      R"({"k": 2, "min_duration": 0.3, "max_duration": 2.0, "min_gap": 0.1, "max_gap": 0.5,
          "xi": 0.5, "heap_selection": true, "seed": 9})");
  EXPECT_NE(schedulers().get("kasync")(4, 7, all), nullptr);
  EXPECT_NE(schedulers().get("async")(4, 7, all), nullptr);
}

TEST(Registry, KAsyncRetiredIndexedIntervalsKey) {
  for (const char* key : {"kasync", "async"}) {
    // Absent or true (the old default) is a no-op, so existing specs run.
    EXPECT_NE(schedulers().get(key)(4, 7, Json::parse(R"({"indexed_intervals": true})")),
              nullptr);
    // false selected the flat scan, which is now a test reference only.
    try {
      (void)schedulers().get(key)(4, 7, Json::parse(R"({"k": 2, "indexed_intervals": false})"));
      FAIL() << key << ": expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string(key) + ": \"indexed_intervals\": false is no longer supported"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("tests/oracles/kasync_interval_oracle.hpp"), std::string::npos) << what;
      EXPECT_NE(what.find("omit the key or set it to true"), std::string::npos) << what;
    }
  }
}

TEST(Registry, KAsyncRejectsMalformedTimingNamingTheKey) {
  struct Row {
    const char* params;
    const char* key;
  };
  const Row rows[] = {
      {R"({"min_duration": 3.0, "max_duration": 0.2})", "\"max_duration\""},
      {R"({"min_duration": 0})", "\"min_duration\""},
      {R"({"min_duration": -1})", "\"min_duration\""},
      {R"({"min_gap": -5})", "\"min_gap\""},
      {R"({"min_gap": 0.5, "max_gap": 0.1})", "\"max_gap\""},
      {R"({"xi": -1})", "\"xi\""},
      {R"({"xi": 0})", "\"xi\""},
      {R"({"xi": 1.5})", "\"xi\""},
  };
  for (const char* factory : {"kasync", "async"}) {
    for (const Row& row : rows) {
      try {
        (void)schedulers().get(factory)(4, 7, Json::parse(row.params));
        ADD_FAILURE() << factory << " " << row.params << ": expected std::invalid_argument";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(row.key), std::string::npos)
            << factory << " " << row.params << ": " << e.what();
      }
    }
    // The edges of every range are accepted: equal bounds, zero gaps, xi = 1.
    EXPECT_NE(schedulers().get(factory)(4, 7, Json::parse(R"({"min_duration": 0.5,
        "max_duration": 0.5, "min_gap": 0, "max_gap": 0, "xi": 1})")),
              nullptr);
  }
}

TEST(Registry, KknpsRejectsUnknownOrInvalidParams) {
  try {
    (void)algorithms().get("kknps")(Json::parse(R"({"k": 2, "radius_divisr": 16})"));
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("kknps"), std::string::npos) << what;
    EXPECT_NE(what.find("\"radius_divisr\""), std::string::npos) << what;
    EXPECT_NE(what.find("\"radius_divisor\""), std::string::npos) << what;
  }
  // Every documented param is accepted.
  EXPECT_NE(algorithms().get("kknps")(Json::parse(
                R"({"k": 2, "distance_delta": 0.05, "halfplane_tolerance": 0, "radius_divisor": 16})")),
            nullptr);
  // Out-of-range values reach the constructor's checks.
  EXPECT_THROW((void)algorithms().get("kknps")(Json::parse(R"({"halfplane_tolerance": -0.1})")),
               std::invalid_argument);
}

TEST(Registry, ErrorFactoriesRejectUnknownKeysAndBadRanges) {
  // A misspelled key names the nearest known one instead of running exact.
  try {
    (void)errors().get("noisy")(Json::parse(R"({"distance_delat": 0.05})"));
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("noisy"), std::string::npos) << what;
    EXPECT_NE(what.find("\"distance_delat\""), std::string::npos) << what;
    EXPECT_NE(what.find("\"distance_delta\""), std::string::npos) << what;
  }
  EXPECT_THROW((void)errors().get("exact")(Json::parse(R"({"distance_delta": 0})")),
               std::runtime_error);
  // Every documented key is accepted, at the edges of its range.
  const core::ErrorModel m = errors().get("noisy")(Json::parse(
      R"({"distance_delta": 0, "skew_lambda": 0.999, "motion_quad_coeff": 0,
          "random_rotation": false, "allow_reflection": true})"));
  EXPECT_EQ(m.skew_lambda, 0.999);
  // Out of range: negative or >= 1 delta and skew, a negative coefficient.
  // (JSON cannot spell a non-finite number; Engine.RejectsOutOfRangeError-
  // Models covers those through the same check.)
  for (const char* bad : {R"({"distance_delta": -0.1})", R"({"distance_delta": 1})",
                          R"({"skew_lambda": -1e-9})", R"({"skew_lambda": 1.0})",
                          R"({"motion_quad_coeff": -1})"}) {
    EXPECT_THROW((void)errors().get("noisy")(Json::parse(bad)), std::invalid_argument) << bad;
  }
}

TEST(Registry, InstantiateRejectsNonFiniteInitialPositions) {
  RunSpec spec;
  spec.n = 16;
  spec.initial = {.type = "grid", .params = Json::parse(R"({"spacing": 1e308})")};
  try {
    (void)instantiate(spec);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("initial \"grid\""), std::string::npos) << what;
    EXPECT_NE(what.find("not finite"), std::string::npos) << what;
  }
  spec.initial.params = Json::parse(R"({"spacing": 0.5})");
  EXPECT_NO_THROW((void)instantiate(spec));
}

TEST(Registry, EveryFactoryRejectsAMisspelledParamNamingIt) {
  // Before, a typo such as grid's "spacng" ran the default spacing and the
  // run succeeded. Every built-in factory names the key and the nearest
  // known one (or that it takes none) when the spec is instantiated.
  struct Case {
    FactorySpec RunSpec::*slot;
    const char* type;
    const char* typo;
    const char* nearest;  // nullptr: the factory takes no params
  };
  const Case cases[] = {
      {&RunSpec::algorithm, "kknps", "radius_divisr", "radius_divisor"},
      {&RunSpec::algorithm, "kknps3d", "hull_tolerence", "hull_tolerance"},
      {&RunSpec::algorithm, "ando", "vv", "v"},
      {&RunSpec::algorithm, "lens_midpoint", "colinearity_tol", "colinearity_tolerance"},
      {&RunSpec::algorithm, "katreniak", "k", nullptr},
      {&RunSpec::algorithm, "cog", "k", nullptr},
      {&RunSpec::algorithm, "gcm", "k", nullptr},
      {&RunSpec::algorithm, "null", "k", nullptr},
      {&RunSpec::scheduler, "fsync", "seed", nullptr},
      {&RunSpec::scheduler, "ssync", "activation_prob", "activation_probability"},
      {&RunSpec::scheduler, "kasync", "heap_selecton", "heap_selection"},
      {&RunSpec::scheduler, "async", "min_gapp", "min_gap"},
      {&RunSpec::scheduler, "knesta", "xii", "xi"},
      {&RunSpec::scheduler, "scripted", "scirpt", "script"},
      {&RunSpec::error, "exact", "distance_delta", nullptr},
      {&RunSpec::error, "noisy", "distance_delat", "distance_delta"},
      {&RunSpec::initial, "line", "spacng", "spacing"},
      {&RunSpec::initial, "grid", "spacng", "spacing"},
      {&RunSpec::initial, "circle", "sid", "side"},
      {&RunSpec::initial, "random", "world_radus", "world_radius"},
      {&RunSpec::initial, "two_cluster", "brige", "bridge"},
      {&RunSpec::initial, "spiral", "pis", "psi"},
  };
  for (const Case& c : cases) {
    RunSpec spec;
    spec.n = 8;
    Json params = Json::object();
    params.set(c.typo, 0.05);
    spec.*c.slot = {.type = c.type, .params = params};
    try {
      (void)instantiate(spec);
      ADD_FAILURE() << c.type << ": \"" << c.typo << "\" accepted";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string(c.type) + ": unknown key \"" + c.typo + "\""),
                std::string::npos)
          << what;
      const std::string hint = c.nearest ? std::string("nearest known: \"") + c.nearest + "\""
                                         : std::string("takes no keys");
      EXPECT_NE(what.find(hint), std::string::npos) << what;
    }
  }
}

TEST(Registry, SeedParamPinsOverDerivedSeed) {
  // Two different derived seeds with the same pinned params seed must build
  // identically-behaving schedulers.
  const Json params = Json::parse(R"({"seed": 123, "k": 2})");
  auto a = schedulers().get("kasync")(4, 1, params);
  auto b = schedulers().get("kasync")(4, 2, params);

  struct View final : core::SimulationView {
    core::Time front = 0.0;
    [[nodiscard]] std::size_t robot_count() const override { return 4; }
    [[nodiscard]] core::Time busy_until(core::RobotId) const override { return 0.0; }
    [[nodiscard]] core::Time frontier() const override { return front; }
    [[nodiscard]] geom::Vec2 position(core::RobotId, core::Time) const override { return {}; }
    [[nodiscard]] std::size_t activations_of(core::RobotId) const override { return 0; }
  };
  View va, vb;
  for (int i = 0; i < 50; ++i) {
    const auto pa = a->next(va);
    const auto pb = b->next(vb);
    ASSERT_TRUE(pa && pb);
    EXPECT_EQ(pa->robot, pb->robot);
    EXPECT_EQ(pa->t_look, pb->t_look);
    va.front = pa->t_look;
    vb.front = pb->t_look;
  }
}

}  // namespace
}  // namespace cohesion::run
