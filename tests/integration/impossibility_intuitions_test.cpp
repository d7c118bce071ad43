// The small impossibility intuitions of §6.1 and §7.2.1, made executable.
//
// 1. Absolute angle error freezes a regular polygon: if the adversary can
//    present a robot's two neighbours as exactly co-linear with it (which
//    absolute angle error permits at vertex separation V), a visibility-
//    safe algorithm must stay put — and a polygon of such robots never
//    moves, so no algorithm tolerates absolute angle error.
// 2. Forced motion (§7.2.1): with relative (skew-bounded) error the
//    perceived angle cannot be pushed to co-linearity for macroscopic turn
//    angles, and the algorithm does move — which is exactly the lever the
//    Section-7 adversary uses.
#include <gtest/gtest.h>

#include "algo/kknps.hpp"
#include "algo/lens_midpoint.hpp"
#include "core/engine.hpp"
#include "geometry/angles.hpp"
#include "metrics/configurations.hpp"
#include "sched/synchronous.hpp"

namespace cohesion {
namespace {

using core::RobotId;
using core::Snapshot;
using core::Time;
using geom::Vec2;

TEST(AngleErrorFreeze, ColinearPerceptionFreezesPolygon) {
  const std::size_t n = 8;
  const auto initial = metrics::regular_polygon_configuration(n, 1.0);  // side = V
  const algo::KknpsAlgorithm algo({.k = 1});
  sched::FSyncScheduler sched(n);
  core::EngineConfig cfg;
  cfg.visibility.radius = 1.0;
  cfg.error.random_rotation = false;
  core::Engine engine(initial, algo, sched, cfg);
  // Adversarial perception: keep true distances but flatten the perceived
  // directions of the two polygon neighbours to be antipodal (co-linear
  // through the observer) — admissible under absolute angle error.
  engine.set_perception_hook([](RobotId, Time, const Snapshot& honest) {
    Snapshot flat = honest;
    if (flat.neighbours().size() == 2) {
      const double d0 = flat.neighbours()[0].position.norm();
      const double d1 = flat.neighbours()[1].position.norm();
      flat.neighbours()[0].position = {d0, 0.0};
      flat.neighbours()[1].position = {-d1, 0.0};
    }
    return flat;
  });
  engine.run(10 * n);
  const auto final_cfg = engine.current_configuration();
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(geom::almost_equal(final_cfg[i], initial[i], 1e-12))
        << "robot " << i << " moved despite perceived co-linearity";
  }
}

TEST(AngleErrorFreeze, ExactPerceptionPolygonConverges) {
  const std::size_t n = 8;
  const auto initial = metrics::regular_polygon_configuration(n, 1.0);
  const algo::KknpsAlgorithm algo({.k = 1});
  sched::FSyncScheduler sched(n);
  core::EngineConfig cfg;
  cfg.visibility.radius = 1.0;
  cfg.error.random_rotation = false;
  core::Engine engine(initial, algo, sched, cfg);
  EXPECT_TRUE(engine.run_until_converged(0.05, 200000));
}

TEST(ForcedMotion, SkewBoundedErrorCannotHideMacroscopicTurns) {
  // §7.2.1: with skew lambda < 1, a true turn angle phi is perceived in
  // [phi(1-lambda), phi(1+lambda)]-ish; for phi bounded away from 0 the
  // perceived configuration stays non-co-linear and KKNPS must move.
  const algo::KknpsAlgorithm algo({.k = 1});
  core::Snapshot snap;
  const double phi = 0.5;  // macroscopic turn
  snap.neighbours().push_back({geom::unit(geom::kPi - phi / 2.0), false});
  snap.neighbours().push_back({geom::unit(-geom::kPi + phi / 2.0).rotated(phi), false});
  // Whatever small skew does to these directions, the angular gap stays
  // > pi and the computed move is non-nil.
  EXPECT_GT(algo.compute(snap).norm(), 0.0);
}

TEST(ForcedMotion, SpiralVictimMovesExactlyWhenAboveTolerance) {
  // The Section-7 victim's motion threshold is sharp: deviation above the
  // tolerance moves, below does not — termination of the sliver collapse
  // (paper §7.2.2) depends on this.
  const double tol = 1e-3;
  const algo::LensMidpointAlgorithm victim({.colinearity_tolerance = tol});
  auto make = [](double dev) {
    core::Snapshot s;
    s.neighbours().push_back({{-1.0, 0.0}, false});
    s.neighbours().push_back({geom::unit(dev), false});
    return s;
  };
  EXPECT_GT(victim.compute(make(2.0 * tol)).norm(), 0.0);
  EXPECT_EQ(victim.compute(make(0.5 * tol)).norm(), 0.0);
}

}  // namespace
}  // namespace cohesion
