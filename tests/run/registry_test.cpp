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
          "xi": 0.5, "indexed_intervals": false, "heap_selection": true, "seed": 9})");
  EXPECT_NE(schedulers().get("kasync")(4, 7, all), nullptr);
  EXPECT_NE(schedulers().get("async")(4, 7, all), nullptr);
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
