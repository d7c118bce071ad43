// Property tests for the engine's visibility predicate (core/spatial_index):
// the certified squared-distance bounds must never misclassify against the
// exact hypot predicate, must leave only a narrow band to it for ordinary
// radii, and VisibilityBall::contains must return exactly the exact
// predicate's verdict — on clustered point sets with exact-boundary pairs
// and duplicates, and on degenerate radii and coordinates. Part of the
// certification battery of architecture contract 12
// (tools/check_kernel_certification.sh).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "core/spatial_index.hpp"

namespace cohesion::core {
namespace {

using geom::Vec2;

/// The model's raw visibility predicate, as the reference engine applies it.
bool exact_visible(Vec2 self, Vec2 p, double r, bool open_ball) {
  const double d = self.distance_to(p);
  return open_ball ? (d < r) : (d <= r + kVisibilityEpsilon);
}

TEST(CertifiedBallBounds, NeverMisclassifyAcrossAdversarialRadii) {
  // For radii from denormal to overflow-inducing, points planted exactly
  // on, just inside and just outside the boundary must never be certified
  // against the exact predicate's verdict. The bounds may be degenerate
  // (everything borderline) — that is allowed; a wrong certificate is not.
  const double radii[] = {0.0,     5e-324,  1e-308, 1e-12,  0.37,  1.0,
                          1e3,     1e155,   1e200,  std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN(), -1.0};
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> jitter(-1.0, 1.0);
  for (const double b : radii) {
    const CertifiedBallBounds cb = certified_ball_bounds(b);
    // Distances probing the boundary from both sides at several scales.
    std::vector<double> probes = {0.0, 5e-324, 1e-12, 0.5, 1.0, 1e200,
                                  std::numeric_limits<double>::infinity()};
    if (std::isfinite(b) && b > 0.0) {
      for (const double f : {0.5, 1.0 - 1e-15, 1.0 - 1e-10, 1.0 - 1e-8, 1.0, 1.0 + 1e-15,
                             1.0 + 1e-10, 1.0 + 1e-8, 2.0}) {
        probes.push_back(b * f);
      }
    }
    for (const double d : probes) {
      for (int dir = 0; dir < 4; ++dir) {
        // Several dx/dy decompositions of (roughly) distance d.
        const double ang = dir * 0.7 + jitter(rng) * 0.01;
        const double dx = d * std::cos(ang);
        const double dy = d * std::sin(ang);
        const double d2 = dx * dx + dy * dy;
        const double exact = std::hypot(dx, dy);
        // Open ball of radius b: d < b. The closed ball uses
        // b = r + kVisibilityEpsilon; the certificates must hold for both
        // comparisons, so check the stricter (<) and the looser (<=)
        // against the same bounds.
        if (d2 <= cb.definite_in2) {
          EXPECT_LT(exact, b) << "b " << b << " d " << d;
        }
        if (d2 > cb.definite_out2) {
          EXPECT_FALSE(exact <= b) << "b " << b << " d " << d;
        }
      }
    }
  }
}

TEST(CertifiedBallBounds, OrdinaryRadiiLeaveOnlyANarrowBand) {
  // The bounds are what lets a Look skip the hypot for almost every
  // candidate: for ordinary radii both must be live, on either side of b^2,
  // and no further from it than a 1e-8 relative band.
  for (const double b : {1e-12, 0.05, 0.37, 1.0, 1.0 + kVisibilityEpsilon, 1e3, 1e150}) {
    const CertifiedBallBounds cb = certified_ball_bounds(b);
    const double lo = b * (1.0 - 1e-8);
    const double hi = b * (1.0 + 1e-8);
    EXPECT_LT(cb.definite_in2, b * b) << "b " << b;
    EXPECT_GT(cb.definite_in2, lo * lo) << "b " << b;
    EXPECT_GT(cb.definite_out2, b * b) << "b " << b;
    EXPECT_LT(cb.definite_out2, hi * hi) << "b " << b;
  }
}

TEST(VisibilityBall, MatchesExactPredicateOnBoundaryPairsAndDuplicates) {
  // 400-seed fuzz over random point sets, each with a pair at distance
  // exactly r along an axis (borderline band traffic) and an exact
  // duplicate: contains() must agree with the raw predicate for open and
  // closed balls, with and without the caller's squared distance.
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    std::mt19937_64 rng(seed * 31 + 7);
    const std::size_t n = 2 + seed % 40;
    const double r = 0.05 + (seed % 7) * 0.33;
    const bool open_ball = seed % 2 == 0;
    std::uniform_real_distribution<double> u(-3.0, 3.0);
    std::vector<Vec2> pts;
    for (std::size_t i = 0; i < n; ++i) pts.push_back({u(rng), u(rng)});
    if (n >= 3) {
      pts[1] = pts[0] + Vec2{r, 0.0};
      pts[2] = pts[0];
    }
    for (std::size_t self = 0; self < n; self += 1 + n / 6) {
      const VisibilityBall ball(pts[self], r, open_ball);
      for (std::size_t i = 0; i < n; ++i) {
        const bool want = exact_visible(pts[self], pts[i], r, open_ball);
        const Vec2 d = pts[i] - pts[self];
        EXPECT_EQ(ball.contains(pts[i]), want) << "seed " << seed << " self " << self << " " << i;
        EXPECT_EQ(ball.contains(pts[i], d.x * d.x + d.y * d.y), want)
            << "seed " << seed << " self " << self << " " << i;
      }
    }
  }
}

TEST(VisibilityBall, DegenerateInputsStayExact) {
  // Huge coordinates overflow dx*dx + dy*dy to inf, zero and negative radii
  // degenerate the certified bounds, and an open ball of radius 0 must
  // reject even exact coincidence. In every case contains() must agree
  // with the raw predicate.
  const std::vector<Vec2> pts{{0.0, 0.0}, {1e200, 1e200}, {-1e200, 5.0},
                              {0.0, 0.0}, {0.5, 0.0},     {3e7, -4e7}};
  for (const double r : {0.0, 1e-12, 0.5, 1e8, 1e200, 1e308, -2.0}) {
    for (const bool open_ball : {false, true}) {
      for (const Vec2 self : pts) {
        const VisibilityBall ball(self, r, open_ball);
        for (const Vec2 p : pts) {
          EXPECT_EQ(ball.contains(p), exact_visible(self, p, r, open_ball))
              << "r " << r << " open " << open_ball << " self (" << self.x << ", " << self.y
              << ") p (" << p.x << ", " << p.y << ")";
        }
      }
    }
  }
}

}  // namespace
}  // namespace cohesion::core
