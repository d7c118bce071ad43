// core::InitialPairSweep (and the worst_initial_pair_stretch wrapper)
// against the pairwise reference in oracles/stretch_oracle.hpp: the same
// double, bit for bit, on random, lattice, degenerate and non-finite
// inputs. Part of the certification battery
// (tools/check_kernel_certification.sh), so it also runs under ASan and
// -march=native, where FMA contraction changes the squared distances the
// certified bands have to absorb.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/spatial_index.hpp"
#include "core/visibility.hpp"
#include "oracles/stretch_oracle.hpp"

namespace cohesion::core {
namespace {

using geom::Vec2;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Equal bit for bit (so +0 != -0), with any NaN equal to any NaN.
bool same(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b) ||
         (std::isnan(a) && std::isnan(b));
}

/// Sweep built once, swept once, plus the wrapper: both must equal the oracle.
void expect_matches_oracle(const std::vector<Vec2>& initial, const std::vector<Vec2>& positions,
                           double v, const std::string& what) {
  const double want = oracles::worst_initial_pair_stretch(initial, positions, v);
  const double got = worst_initial_pair_stretch(initial, positions, v);
  EXPECT_TRUE(same(got, want)) << what << ": sweep " << got << " oracle " << want << " (n "
                               << initial.size() << ", v " << v << ")";
}

std::vector<Vec2> uniform_box(std::mt19937_64& rng, std::size_t n, double side) {
  std::uniform_real_distribution<double> u(0.0, side);
  std::vector<Vec2> pts(n);
  for (Vec2& p : pts) p = {u(rng), u(rng)};
  return pts;
}

/// Square lattice of `n` points at spacing `step`, row-major.
std::vector<Vec2> lattice(std::size_t n, double step, Vec2 origin = {0.0, 0.0}) {
  const auto cols = static_cast<std::size_t>(std::ceil(std::sqrt(double(n))));
  std::vector<Vec2> pts(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts[i] = {origin.x + double(i % std::max<std::size_t>(cols, 1)) * step,
              origin.y + double(i / std::max<std::size_t>(cols, 1)) * step};
  }
  return pts;
}

std::size_t pick_n(std::mt19937_64& rng) {
  static constexpr std::size_t kSmall[] = {0, 1, 2, 16, 63, 64, 65};
  if (rng() % 4 != 0) return kSmall[rng() % std::size(kSmall)];
  return 100 + rng() % 1001;  // a few hundred, up to 1100
}

double pick_v(std::mt19937_64& rng) {
  static constexpr double kRadii[] = {1e-3, 0.05, 1.0, 1e3};
  return kRadii[rng() % std::size(kRadii)];
}

/// Initial configurations: random at several densities, lattices and
/// spokes whose pairs sit exactly at v or v + 1e-12 (the certified band's
/// fallback),
/// signed zeros, all-coincident, and the 1e+-300 scales where squared
/// distances overflow or underflow.
std::vector<Vec2> make_initial(std::mt19937_64& rng, std::size_t n, double v, int kind) {
  switch (kind) {
    case 0:
      return uniform_box(rng, n, v * (0.3 + 0.2 * double(rng() % 8)) * std::sqrt(double(n) + 1));
    case 1:
      return lattice(n, v / double(1 + rng() % 4));
    case 2:
      return lattice(n, v + kVisibilityEpsilon, {1.0, -3.0});
    case 3: {
      // Pairs at exactly v and at v + 1e-12 along both axes.
      std::vector<Vec2> pts = uniform_box(rng, n, v * std::sqrt(double(n) + 1));
      for (std::size_t i = 1; i < n; i += 2) {
        const double gap = rng() % 2 ? v : v + kVisibilityEpsilon;
        pts[i] = rng() % 2 ? Vec2{pts[i - 1].x + gap, pts[i - 1].y}
                           : Vec2{pts[i - 1].x, pts[i - 1].y - gap};
      }
      return pts;
    }
    case 4: {
      std::vector<Vec2> pts(n);
      for (Vec2& p : pts) p = {rng() % 2 ? 0.0 : -0.0, rng() % 2 ? 0.0 : -0.0};
      return pts;
    }
    case 5: {
      // A hub with spokes at exactly v or v + 1e-12 in random directions:
      // off-axis pairs whose squared distance rounds across (v + 1e-12)^2
      // while hypot does not, or the other way round.
      std::vector<Vec2> pts = uniform_box(rng, n, v * std::sqrt(double(n) + 1));
      std::uniform_real_distribution<double> angle(0.0, 6.283185307179586);
      for (std::size_t i = 1; i < n; ++i) {
        const double gap = rng() % 2 ? v : v + kVisibilityEpsilon;
        const double a = angle(rng);
        pts[i] = pts[0] + Vec2{gap * std::cos(a), gap * std::sin(a)};
      }
      return pts;
    }
    case 6: {
      // Tiny scale: every squared distance underflows, every pair visible.
      std::vector<Vec2> pts = uniform_box(rng, n, 1.0);
      for (Vec2& p : pts) p = p * 1e-300;
      return pts;
    }
    default: {
      // Huge scale: squared distances overflow; offsets below one ulp make
      // coincident clusters that stay visible.
      std::vector<Vec2> pts = uniform_box(rng, n, 4.0);
      for (Vec2& p : pts) p = Vec2{std::floor(p.x), std::floor(p.y)} * 1e300;
      return pts;
    }
  }
}

/// Sampled configurations: jittered at several scales, fresh, collapsed,
/// a lattice (many pairs tie for the maximum), and scaled to 1e+-300.
std::vector<Vec2> make_positions(std::mt19937_64& rng, const std::vector<Vec2>& initial,
                                 double v, int kind) {
  std::vector<Vec2> pts = initial;
  switch (kind) {
    case 0:
      return pts;
    case 1:
    case 2: {
      const double scale = kind == 1 ? 1e-12 : v * double(1 + rng() % 10) / 4.0;
      std::uniform_real_distribution<double> j(-scale, scale);
      for (Vec2& p : pts) p += Vec2{j(rng), j(rng)};
      return pts;
    }
    case 3:
      return uniform_box(rng, initial.size(), 3.0 * v);
    case 4:
      for (Vec2& p : pts) p = {0.5, 0.5};
      return pts;
    case 5:
      return lattice(initial.size(), v * 0.5);
    case 6:
      for (Vec2& p : pts) p = p * 1e300;
      return pts;
    default:
      for (Vec2& p : pts) p = p * 1e-300;
      return pts;
  }
}

/// Overwrite a few coordinates with NaN or +-inf.
void poison(std::mt19937_64& rng, std::vector<Vec2>& pts) {
  if (pts.empty()) return;
  static constexpr double kBad[] = {kNaN, kInf, -kInf};
  for (int k = 0; k < 3; ++k) {
    Vec2& p = pts[rng() % pts.size()];
    (rng() % 2 ? p.x : p.y) = kBad[rng() % std::size(kBad)];
  }
}

TEST(StretchSweep, DifferentialFuzzMatchesOracle) {
  constexpr int kCases = 2400;
  for (int c = 0; c < kCases; ++c) {
    std::mt19937_64 rng(0x5eed0000u + static_cast<std::uint64_t>(c));
    const std::size_t n = pick_n(rng);
    const double v = pick_v(rng);
    const int init_kind = static_cast<int>(rng() % 8);
    auto initial = make_initial(rng, n, v, init_kind);
    const int pos_kind = static_cast<int>(rng() % 8);
    auto positions = make_positions(rng, initial, v, pos_kind);
    if (rng() % 10 == 0) poison(rng, initial);
    if (rng() % 10 == 0) poison(rng, positions);
    expect_matches_oracle(initial, positions, v,
                          "case " + std::to_string(c) + " kinds " + std::to_string(init_kind) +
                              "/" + std::to_string(pos_kind));
    if (HasFailure()) return;  // one readable failure beats thousands
  }
}

TEST(StretchSweep, OneSweepServesManySamples) {
  // The accumulator's shape: built once per run, swept at every sample.
  // No state (running maximum, certified skip bound) may leak between calls.
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    std::mt19937_64 rng(seed);
    const std::size_t n = seed % 2 ? 40 : 300;
    const double v = pick_v(rng);
    const auto initial = lattice(n, v / 3.0);
    InitialPairSweep sweep(initial, v);
    for (int s = 0; s < 30; ++s) {
      const auto positions = make_positions(rng, initial, v, s % 8);
      const double want = oracles::worst_initial_pair_stretch(initial, positions, v);
      const double got = sweep.worst_stretch(positions);
      EXPECT_TRUE(same(got, want)) << "seed " << seed << " sample " << s << ": " << got
                                   << " vs " << want;
    }
  }
}

TEST(StretchSweep, DegenerateRadiiMatchOracle) {
  // Non-positive, NaN, infinite, subnormal and extreme radii: the sweep must
  // still return whatever the reference returns (0, or +inf for v = +0
  // when a coincident pair separates).
  const double radii[] = {0.0,    -0.0, -1.0, -1e-13, kNaN, kInf, -kInf,
                          5e-324, 1e-300, 1e-154, 1e154, 1e300, std::numeric_limits<double>::max()};
  for (const double v : radii) {
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      std::mt19937_64 rng(seed + 100);
      const std::size_t n = seed % 2 ? 20 : 90;
      std::vector<Vec2> initial = uniform_box(rng, n, 2.0);
      initial[1] = initial[0];  // a coincident pair: visible at any v >= 0
      initial[3] = {initial[2].x + 1e-12, initial[2].y};
      auto positions = make_positions(rng, initial, 1.0, static_cast<int>(seed % 8));
      if (seed == 7) poison(rng, positions);
      expect_matches_oracle(initial, positions, v, "seed " + std::to_string(seed));
    }
  }
}

TEST(StretchSweep, SizeMismatchThrows) {
  const std::vector<Vec2> initial{{0.0, 0.0}, {0.5, 0.0}, {1.0, 0.0}};
  const std::vector<Vec2> shorter{{0.0, 0.0}, {0.5, 0.0}};
  const std::vector<Vec2> longer{{0.0, 0.0}, {0.5, 0.0}, {1.0, 0.0}, {2.0, 0.0}};
  EXPECT_THROW((void)worst_initial_pair_stretch(initial, shorter, 1.0), std::invalid_argument);
  EXPECT_THROW((void)worst_initial_pair_stretch(initial, longer, 1.0), std::invalid_argument);
  EXPECT_THROW((void)worst_initial_pair_stretch(initial, {}, 1.0), std::invalid_argument);
  InitialPairSweep sweep(initial, 1.0);
  EXPECT_THROW((void)sweep.worst_stretch(shorter), std::invalid_argument);
  // Also for a radius that indexes nothing: the check precedes the sweep.
  InitialPairSweep degenerate(initial, -1.0);
  EXPECT_THROW((void)degenerate.worst_stretch(longer), std::invalid_argument);
  EXPECT_EQ(sweep.worst_stretch(initial), 1.0);  // robots 0 and 2 sit exactly at V
}

}  // namespace
}  // namespace cohesion::core
