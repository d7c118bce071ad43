#include "core/error_model.hpp"

#include <gtest/gtest.h>

#include <random>

#include "geometry/angles.hpp"

namespace cohesion::core {
namespace {

using geom::kPi;
using geom::kTwoPi;
using geom::Vec2;

TEST(SymmetricDistortion, IdentityWhenZeroSkew) {
  const SymmetricDistortion mu(0.0, 0.3);
  for (double t = -3.0; t < 3.0; t += 0.1) EXPECT_DOUBLE_EQ(mu.apply(t), t);
}

TEST(SymmetricDistortion, SymmetryProperty) {
  // mu(theta + pi) = mu(theta) + pi (paper §2.3.3).
  const SymmetricDistortion mu(0.4, 1.1);
  for (double t = 0.0; t < kPi; t += 0.05) {
    EXPECT_NEAR(mu.apply(t + kPi), mu.apply(t) + kPi, 1e-12);
  }
}

TEST(SymmetricDistortion, SkewBound) {
  // (1 - lambda) xi <= mu(theta+xi) - mu(theta) <= (1 + lambda) xi.
  const double lambda = 0.3;
  const SymmetricDistortion mu(lambda, 0.77);
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> ut(0.0, kTwoPi), ux(1e-4, kPi - 1e-4);
  for (int i = 0; i < 2000; ++i) {
    const double theta = ut(rng), xi = ux(rng);
    const double diff = mu.apply(theta + xi) - mu.apply(theta);
    EXPECT_GE(diff, (1.0 - lambda) * xi - 1e-9);
    EXPECT_LE(diff, (1.0 + lambda) * xi + 1e-9);
  }
}

TEST(SymmetricDistortion, InverseRoundTrip) {
  const SymmetricDistortion mu(0.6, 0.2);
  for (double t = -5.0; t < 5.0; t += 0.07) {
    EXPECT_NEAR(mu.invert(mu.apply(t)), t, 1e-10);
    EXPECT_NEAR(mu.apply(mu.invert(t)), t, 1e-10);
  }
}

TEST(SymmetricDistortion, InvalidSkewThrows) {
  EXPECT_THROW(SymmetricDistortion(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(SymmetricDistortion(-0.1, 0.0), std::invalid_argument);
}

TEST(LocalFrame, IdentityIsExact) {
  const LocalFrame f = LocalFrame::identity();
  std::mt19937_64 rng(6);
  const Vec2 p{0.3, -0.8};
  EXPECT_TRUE(geom::almost_equal(f.perceive(p, rng), p, 1e-12));
  EXPECT_TRUE(geom::almost_equal(f.intent_to_global(p), p, 1e-12));
}

TEST(LocalFrame, PerceiveThenActIsConsistent) {
  // Moving toward a perceived neighbour must move toward the true
  // neighbour: perception and actuation share the frame (paper §2.3.3).
  ErrorModel model;
  model.random_rotation = true;
  model.allow_reflection = true;
  model.skew_lambda = 0.25;
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    const LocalFrame f = LocalFrame::sample(model, rng);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    const Vec2 true_offset{u(rng), u(rng)};
    if (true_offset.norm() < 1e-6) continue;
    const Vec2 perceived = f.perceive(true_offset, rng);
    const Vec2 back = f.intent_to_global(perceived);
    // Same direction as the true offset (distance error = 0 here).
    EXPECT_NEAR(back.normalized().dot(true_offset.normalized()), 1.0, 1e-9);
  }
}

TEST(LocalFrame, DistanceErrorBounded) {
  ErrorModel model;
  model.distance_delta = 0.1;
  model.random_rotation = false;
  std::mt19937_64 rng(8);
  const LocalFrame f = LocalFrame::sample(model, rng);
  for (int i = 0; i < 1000; ++i) {
    const Vec2 p{1.0, 0.0};
    const double d = f.perceive(p, rng).norm();
    EXPECT_GE(d, 0.9 - 1e-12);
    EXPECT_LE(d, 1.1 + 1e-12);
  }
}

TEST(LocalFrame, StageDrawsOnlyForNonZeroOffsets) {
  // perceive() = finish(stage()): a zero rotated offset takes no distance
  // draw (the RNG stream is part of the engine's contract), any other one
  // takes exactly one.
  ErrorModel model;
  model.distance_delta = 0.1;
  model.allow_reflection = true;
  std::mt19937_64 rng(21);
  const LocalFrame f = LocalFrame::sample(model, rng);
  for (const Vec2 zero : {Vec2{0.0, 0.0}, Vec2{-0.0, 0.0}, Vec2{0.0, -0.0}}) {
    const std::mt19937_64 before = rng;
    const StagedOffset s = f.stage(zero, rng);
    EXPECT_TRUE(rng == before);
    EXPECT_EQ(s.scale, 1.0);
  }
  std::mt19937_64 once = rng;
  once.discard(1);
  const StagedOffset s = f.stage({1e-300, 0.0}, rng);
  EXPECT_TRUE(rng == once);
  EXPECT_NE(s.scale, 1.0);
  // finish() is pure: the same staged offset always perceives the same.
  EXPECT_EQ(f.finish(s), f.finish(s));
}

TEST(LocalFrame, RotationPreservesDistances) {
  ErrorModel model;
  model.random_rotation = true;
  std::mt19937_64 rng(9);
  const LocalFrame f = LocalFrame::sample(model, rng);
  for (int i = 0; i < 100; ++i) {
    std::uniform_real_distribution<double> u(-2.0, 2.0);
    const Vec2 p{u(rng), u(rng)};
    EXPECT_NEAR(f.perceive(p, rng).norm(), p.norm(), 1e-12);
  }
}

TEST(LocalFrame, ReflectionPreservesDistances) {
  ErrorModel model;
  model.random_rotation = true;
  model.allow_reflection = true;
  std::mt19937_64 rng(10);
  for (int s = 0; s < 16; ++s) {
    const LocalFrame f = LocalFrame::sample(model, rng);
    const Vec2 p{0.6, -0.4};
    EXPECT_NEAR(f.perceive(p, rng).norm(), p.norm(), 1e-12);
  }
}

TEST(LocalFrame, SkewPreservesSidedness) {
  // The distortion must preserve perceived sidedness w.r.t. lines through
  // neighbouring points (paper §6.1): relative order of angles is kept.
  ErrorModel model;
  model.skew_lambda = 0.5;
  model.random_rotation = false;
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const LocalFrame f = LocalFrame::sample(model, rng);
    std::uniform_real_distribution<double> u(0.0, kPi - 0.01);
    double a = u(rng), b = u(rng);
    if (a > b) std::swap(a, b);
    const Vec2 pa = f.perceive(geom::unit(a), rng);
    const Vec2 pb = f.perceive(geom::unit(b), rng);
    // ccw order preserved: sweep from pa to pb stays < pi when b - a < pi.
    const double sweep = geom::ccw_sweep(pa.angle(), pb.angle());
    EXPECT_LT(sweep, kPi + 1e-9);
  }
}

TEST(MotionError, ZeroCoeffIsExact) {
  std::mt19937_64 rng(12);
  const Vec2 end = apply_motion_error({0.0, 0.0}, {1.0, 1.0}, 0.0, 1.0, rng);
  EXPECT_TRUE(geom::almost_equal(end, {1.0, 1.0}));
}

TEST(MotionError, QuadraticBound) {
  std::mt19937_64 rng(13);
  const double coeff = 0.5, v = 1.0;
  for (int i = 0; i < 1000; ++i) {
    std::uniform_real_distribution<double> u(-0.2, 0.2);
    const Vec2 start{0.0, 0.0};
    const Vec2 planned{u(rng), u(rng)};
    const Vec2 realized = apply_motion_error(start, planned, coeff, v, rng);
    const double d = planned.distance_to(start);
    EXPECT_LE(realized.distance_to(planned), coeff * d * d / v + 1e-12);
  }
}

TEST(MotionError, NilMoveUnaffected) {
  std::mt19937_64 rng(14);
  const Vec2 end = apply_motion_error({1.0, 2.0}, {1.0, 2.0}, 0.9, 1.0, rng);
  EXPECT_TRUE(geom::almost_equal(end, {1.0, 2.0}));
}

TEST(ErrorModel, ExactPredicate) {
  ErrorModel m;
  EXPECT_TRUE(m.exact());
  m.distance_delta = 0.01;
  EXPECT_FALSE(m.exact());
}

}  // namespace
}  // namespace cohesion::core
