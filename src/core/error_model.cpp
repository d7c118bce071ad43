#include "core/error_model.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "geometry/angles.hpp"

namespace cohesion::core {

using geom::Vec2;

SymmetricDistortion::SymmetricDistortion(double lambda, double phase)
    : lambda_(lambda), phase_(phase) {
  if (lambda < 0.0 || lambda >= 1.0) {
    throw std::invalid_argument("SymmetricDistortion: skew must be in [0, 1)");
  }
}

double SymmetricDistortion::apply(double theta) const {
  if (lambda_ == 0.0) return theta;
  return theta + (lambda_ / 2.0) * std::sin(2.0 * (theta - phase_));
}

double SymmetricDistortion::invert(double psi) const {
  if (lambda_ == 0.0) return psi;
  double theta = psi;
  for (int it = 0; it < 50; ++it) {
    const double f = apply(theta) - psi;
    const double fp = 1.0 + lambda_ * std::cos(2.0 * (theta - phase_));
    const double step = f / fp;
    theta -= step;
    if (std::abs(step) < 1e-15) break;
  }
  return theta;
}

void ErrorModel::validate(std::string_view context) const {
  const auto fail = [&](const char* field, const char* range, double got) {
    throw std::invalid_argument(std::string(context) + ": " + field + " must be finite and " +
                                range + " (got " + std::to_string(got) + ")");
  };
  const auto unit_interval = [](double v) { return std::isfinite(v) && v >= 0.0 && v < 1.0; };
  if (!unit_interval(distance_delta)) fail("distance_delta", "in [0, 1)", distance_delta);
  if (!unit_interval(skew_lambda)) fail("skew_lambda", "in [0, 1)", skew_lambda);
  if (!(std::isfinite(motion_quad_coeff) && motion_quad_coeff >= 0.0)) {
    fail("motion_quad_coeff", ">= 0", motion_quad_coeff);
  }
}

LocalFrame LocalFrame::sample(const ErrorModel& model, std::mt19937_64& rng) {
  LocalFrame f;
  if (model.random_rotation) {
    std::uniform_real_distribution<double> ang(0.0, geom::kTwoPi);
    f.rotation_ = ang(rng);
    f.cos_ = std::cos(f.rotation_);
    f.sin_ = std::sin(f.rotation_);
  }
  if (model.allow_reflection) {
    f.reflect_ = (rng() & 1u) != 0;
  }
  if (model.skew_lambda > 0.0) {
    std::uniform_real_distribution<double> ph(0.0, geom::kPi);
    f.distortion_ = SymmetricDistortion(model.skew_lambda, ph(rng));
  }
  f.distance_delta_ = model.distance_delta;
  return f;
}

LocalFrame LocalFrame::identity() { return LocalFrame{}; }

Vec2 LocalFrame::finish(StagedOffset staged) const {
  const Vec2 v = staged.offset;
  const double d = v.norm();
  if (d == 0.0) return v;
  const double theta = distortion_.apply(v.angle());
  // Without a draw the factor is 1 and d * 1 == d.
  return geom::unit(theta) * (d * staged.scale);
}

Vec2 LocalFrame::intent_to_global(Vec2 local_destination) const {
  const double d = local_destination.norm();
  if (d == 0.0) return {0.0, 0.0};
  double theta = local_destination.angle();
  theta = distortion_.invert(theta);
  Vec2 v = geom::unit(theta) * d;
  v = v.rotated(-rotation_);
  if (reflect_) v.y = -v.y;
  return v;
}

Vec2 apply_motion_error(Vec2 start, Vec2 end, double coeff, double v, std::mt19937_64& rng) {
  if (coeff == 0.0 || v <= 0.0) return end;
  const Vec2 d = end - start;
  const double len = d.norm();
  if (len == 0.0) return end;
  const double max_dev = coeff * len * len / v;
  std::uniform_real_distribution<double> noise(-max_dev, max_dev);
  return end + d.normalized().perp() * noise(rng);
}

}  // namespace cohesion::core
