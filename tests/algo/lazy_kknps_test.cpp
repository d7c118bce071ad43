// Lazy perception against the eager rule. The engine stages each Look
// (core::Snapshot), decides co-location on proxies and runs KKNPS's lazy
// rule, which materializes exact perceived positions only inside certified
// bands. The eager pipeline — LocalFrame::perceive per neighbour, the
// all-pairs co-location reference, and the eager destination rule
// (tests/oracles/kknps_oracle.hpp) — must give the same destination, the
// same collapsed snapshot (the trace's `seen`), the same exact positions
// and the same RNG stream, bit for bit. The fuzz leans on every band: tied
// maximum norms, neighbours at exactly V_Y/2, octant boundaries (axes and
// diagonals), collinear ties and pairs at eps ± a few ulps.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "algo/kknps.hpp"
#include "core/colocation.hpp"
#include "core/engine.hpp"
#include "core/error_model.hpp"
#include "core/snapshot.hpp"
#include "metrics/configurations.hpp"
#include "oracles/colocation_oracle.hpp"
#include "oracles/kknps_oracle.hpp"
#include "sched/synchronous.hpp"

namespace cohesion::algo {
namespace {

using core::ColocationIndex;
using core::ErrorModel;
using core::LocalFrame;
using core::ObservedRobot;
using core::Snapshot;
using geom::Vec2;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The frame kinds the engine samples: identity, rotation, rotation with
/// reflection, distance noise, and skew (materialized at staging).
LocalFrame frame_of_kind(int kind, std::mt19937_64& rng) {
  ErrorModel m;
  switch (kind) {
    case 0: return LocalFrame::identity();
    case 1: break;
    case 2: m.allow_reflection = true; break;
    case 3: m.allow_reflection = true; m.distance_delta = 0.05; break;
    default: m.distance_delta = 0.02; m.skew_lambda = 0.3; break;
  }
  return LocalFrame::sample(m, rng);
}

/// True offsets mixing every band the lazy rule must get right.
std::vector<Vec2> adversarial_offsets(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  const double scales[] = {1.0, 1.0, 0.05, 1e-3, 20.0, 1e4, 1e200, 1e-200};
  const double v = scales[rng() % 8];
  const std::size_t k = 1 + rng() % (rng() % 8 == 0 ? 600 : 40);
  const double eps = core::kColocationEps;
  const auto ulps = [](double x, int n) {
    for (int i = 0; i < std::abs(n); ++i) {
      x = std::nextafter(x, n > 0 ? std::numeric_limits<double>::infinity()
                                  : -std::numeric_limits<double>::infinity());
    }
    return x;
  };
  std::vector<Vec2> out;
  while (out.size() < k) {
    const int shape = static_cast<int>(rng() % 14);
    const Vec2 base = out.empty() ? Vec2{u(rng) * v, u(rng) * v} : out[rng() % out.size()];
    const int walk = static_cast<int>(rng() % 7) - 3;
    switch (shape) {
      case 0:
      case 1:
        out.push_back({u(rng) * v, u(rng) * v});
        break;
      case 2: {  // lattice: axes and diagonals of the unrotated frame
        const double s = v / 8.0;
        out.push_back({s * static_cast<double>(static_cast<int>(rng() % 17) - 8),
                       s * static_cast<double>(static_cast<int>(rng() % 17) - 8)});
        break;
      }
      case 3:  // tied norms: swapped and mirrored coordinates
        out.push_back(rng() % 2 ? Vec2{base.y, base.x} : Vec2{-base.x, base.y});
        break;
      case 4:  // exactly half (and a few ulps around it) of another offset
        out.push_back({ulps(base.x * 0.5, walk), base.y * 0.5});
        break;
      case 5: {  // octant boundaries, exactly and a few ulps off
        const double t = u(rng) * v;
        const Vec2 edges[] = {{t, 0.0}, {0.0, t}, {t, t}, {-t, t}, {t, -0.0}, {-0.0, t}};
        const Vec2 e = edges[rng() % 6];
        out.push_back({ulps(e.x, walk), e.y});
        break;
      }
      case 6: {  // collinear with another offset
        const double f[] = {2.0, 3.0, 0.75, 1.0 / 3.0, -1.0};
        out.push_back(base * f[rng() % 5]);
        break;
      }
      case 7:  // a pair at eps ± a few ulps on one axis
        out.push_back({ulps(base.x + eps, walk), base.y});
        break;
      case 8:  // a pair at eps ± a few ulps on both axes
        out.push_back({ulps(base.x - eps, walk), ulps(base.y + eps, -walk)});
        break;
      case 9:  // co-located within a fraction of eps, or an exact duplicate
        out.push_back(rng() % 2 ? base : Vec2{base.x + 0.3 * eps, base.y - 0.6 * eps});
        break;
      case 10:  // a pair at eps times (1 ± a proxy band)
        out.push_back({base.x + eps * (1.0 + 1e-13 * walk), base.y});
        break;
      case 11:  // zero and signed zeros
        out.push_back({rng() % 2 ? 0.0 : -0.0, rng() % 2 ? 0.0 : -0.0});
        break;
      case 12: {  // non-finite
        const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity()};
        out.push_back(rng() % 2 ? Vec2{bad[rng() % 3], u(rng)} : Vec2{u(rng), bad[rng() % 3]});
        break;
      }
      default:  // outside the proxy range: huge or tiny
        out.push_back(rng() % 2 ? Vec2{u(rng) * 1e160, u(rng)} : Vec2{u(rng) * 1e-160, 0.0});
        break;
    }
  }
  return out;
}

struct LookResult {
  Vec2 destination;
  std::vector<ObservedRobot> seen;
  std::mt19937_64 rng;
  std::size_t materializations = 0;
};

/// The engine's Look and Compute: stage, co-locate on proxies, lazy rule.
LookResult lazy_look(const KknpsAlgorithm& algo, const LocalFrame& frame,
                     const std::vector<Vec2>& offsets, bool multiplicity, std::uint64_t seed) {
  LookResult r{{}, {}, std::mt19937_64(seed), 0};
  Snapshot snap(frame);
  for (const Vec2 o : offsets) snap.stage(o, r.rng);
  ColocationIndex index;
  multiplicity ? index.flag(snap) : index.collapse(snap);
  r.destination = algo.compute(snap);
  r.materializations = snap.materializations();
  r.seen = snap.neighbours();
  return r;
}

/// The eager reference: perceive everything, all-pairs co-location, eager rule.
LookResult eager_look(const KknpsAlgorithm& algo, const LocalFrame& frame,
                      const std::vector<Vec2>& offsets, bool multiplicity, std::uint64_t seed) {
  LookResult r{{}, {}, std::mt19937_64(seed), 0};
  for (const Vec2 o : offsets) r.seen.push_back({frame.perceive(o, r.rng), false});
  multiplicity ? oracles::flag_colocated(r.seen) : oracles::collapse_colocated(r.seen);
  r.destination = oracles::eager_kknps(algo, Snapshot(r.seen));
  return r;
}

void expect_same_look(const LookResult& got, const LookResult& want, std::uint64_t seed) {
  EXPECT_EQ(bits(got.destination.x), bits(want.destination.x)) << "seed " << seed;
  EXPECT_EQ(bits(got.destination.y), bits(want.destination.y)) << "seed " << seed;
  EXPECT_TRUE(got.rng == want.rng) << "seed " << seed;
  ASSERT_EQ(got.seen.size(), want.seen.size()) << "seed " << seed;
  for (std::size_t i = 0; i < got.seen.size(); ++i) {
    EXPECT_EQ(bits(got.seen[i].position.x), bits(want.seen[i].position.x)) << "seed " << seed;
    EXPECT_EQ(bits(got.seen[i].position.y), bits(want.seen[i].position.y)) << "seed " << seed;
    EXPECT_EQ(got.seen[i].multiplicity, want.seen[i].multiplicity) << "seed " << seed;
  }
}

TEST(LazyKknps, DifferentialFuzzAgainstEagerOracle) {
  std::size_t moved = 0, lazy = 0;
  for (std::uint64_t seed = 1; seed <= 2500; ++seed) {
    std::mt19937_64 rng(seed);
    const int kind = static_cast<int>(seed % 5);
    const LocalFrame frame = frame_of_kind(kind, rng);
    const std::vector<Vec2> offsets = adversarial_offsets(rng);
    const bool multiplicity = seed % 3 == 0;
    const KknpsAlgorithm algo({.k = 1 + seed % 4,
                               .distance_delta = seed % 7 == 0 ? 0.05 : 0.0,
                               .halfplane_tolerance = seed % 6 == 0 ? 0.0 : 1e-12});
    const LookResult got = lazy_look(algo, frame, offsets, multiplicity, seed * 31);
    const LookResult want = eager_look(algo, frame, offsets, multiplicity, seed * 31);
    expect_same_look(got, want, seed);
    if (HasFailure()) return;
    if (want.destination != Vec2{0.0, 0.0}) ++moved;
    if (got.materializations < offsets.size()) ++lazy;
  }
  EXPECT_GT(moved, 500u);  // both branches of the stay-put rule
  EXPECT_LT(moved, 2000u);
  // Adversarial snapshots put most neighbours in some band, and the
  // off-scale ones (1e±200, |q| > 32) take the exact path outright; the
  // fuzz must still run the lazy rule on a good share of them.
  EXPECT_GT(lazy, 500u);
}

TEST(LazyKknps, RandomSnapshotsMatchEagerOracle) {
  // Plain random and lattice-like neighbourhoods at the visibility scale,
  // in every frame kind: the shape engine Looks have.
  std::size_t staged = 0, materialized = 0;
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    std::mt19937_64 rng(seed + 100000);
    const int kind = static_cast<int>(seed % 5);
    const LocalFrame frame = frame_of_kind(kind, rng);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    std::vector<Vec2> offsets;
    const std::size_t k = 1 + rng() % 300;
    const bool lattice = seed % 2 == 0;
    while (offsets.size() < k) {
      const Vec2 p = lattice ? Vec2{0.05 * static_cast<double>(static_cast<int>(rng() % 41) - 20),
                                    0.05 * static_cast<double>(static_cast<int>(rng() % 41) - 20)}
                             : Vec2{u(rng), u(rng)};
      if (p.norm() <= 1.0) offsets.push_back(p);
    }
    const bool multiplicity = seed % 3 == 0;
    const KknpsAlgorithm algo({.k = 1 + seed % 3});
    const LookResult got = lazy_look(algo, frame, offsets, multiplicity, seed);
    const LookResult want = eager_look(algo, frame, offsets, multiplicity, seed);
    expect_same_look(got, want, seed);
    if (HasFailure()) return;
    if (kind != 4) {
      staged += offsets.size();
      materialized += got.materializations;
    }
  }
  EXPECT_LT(materialized * 5, staged);
}

TEST(LazyKknps, MovingConesMatchEagerOracleOnEveryBand) {
  // Robots that move read V_Y (the step length), the two directions that
  // bound the gap and the distant set exactly, so every band shows in the
  // destination's bits here: distant neighbours fill a cone narrower than
  // pi, the maximum norm is tied by swapped and mirrored copies, points
  // at exactly half of it sit outside the cone (the distant test and the
  // stay certificate must not count them), the cone's edges carry
  // collinear ties, and identity frames put points on the axes with
  // coordinates of either sign a few ulps from zero.
  std::size_t moved = 0;
  for (std::uint64_t seed = 1; seed <= 1500; ++seed) {
    std::mt19937_64 rng(seed + 200000);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    const LocalFrame frame = frame_of_kind(static_cast<int>(seed % 4), rng);
    const double start = geom::kTwoPi * u(rng);
    const double width = geom::kPi * (0.2 + 0.75 * u(rng));
    std::vector<Vec2> offsets;
    for (std::size_t i = 0, k = 3 + rng() % 40; i < k; ++i) {
      offsets.push_back(geom::unit(start + width * u(rng)) * (0.55 + 0.45 * u(rng)));
    }
    offsets.push_back(geom::unit(start) * 0.9);
    offsets.push_back(geom::unit(start + width) * 0.9);
    const Vec2 edge_lo = offsets[offsets.size() - 2], edge_hi = offsets.back();
    Vec2 top = offsets[0];
    for (const Vec2 o : offsets) top = o.norm() > top.norm() ? o : top;
    const Vec2 ties[] = {{top.y, top.x}, {-top.y, top.x}, {top.y, -top.x}, {-top.x, -top.y}};
    for (std::size_t i = 0, k = rng() % 4; i < k; ++i) {
      // A true-norm tie of the maximum, inside the cone only if it
      // happens to fall there; outside it at half length.
      const Vec2 t = ties[rng() % 4];
      const double a = std::atan2(t.y, t.x) - start;
      const bool inside = geom::normalize_angle(a) <= width;
      offsets.push_back(inside ? t : t * 0.5);
    }
    for (std::size_t i = 0, k = rng() % 3; i < k; ++i) {
      const double f[] = {0.75, 0.8, 0.9375};
      offsets.push_back((rng() % 2 ? edge_lo : edge_hi) * f[rng() % 3]);
    }
    if (seed % 4 == 0) {  // identity frame: axis points with tiny signed offsets
      const double tiny[] = {1e-300, -1e-300, 5e-324, -5e-324, 1e-17, -1e-17};
      const Vec2 axis = geom::unit(start + width * u(rng));
      const bool vertical = std::abs(axis.y) > std::abs(axis.x);
      const double len = 0.9 * (vertical ? std::copysign(1.0, axis.y) : std::copysign(1.0, axis.x));
      const double d = tiny[rng() % 6];
      offsets.push_back(vertical ? Vec2{d, len} : Vec2{len, d});
    }
    std::shuffle(offsets.begin(), offsets.end(), rng);
    const bool multiplicity = seed % 3 == 0;
    const KknpsAlgorithm algo({.k = 1 + seed % 3, .halfplane_tolerance = seed % 2 ? 0.0 : 1e-12});
    const LookResult got = lazy_look(algo, frame, offsets, multiplicity, seed);
    const LookResult want = eager_look(algo, frame, offsets, multiplicity, seed);
    expect_same_look(got, want, seed);
    if (HasFailure()) return;
    if (want.destination != Vec2{0.0, 0.0}) ++moved;
  }
  EXPECT_GT(moved, 1200u);
}

TEST(LazyKknps, StayCertificateOnAxisSignFlips) {
  // Proxies just left of the y axis whose exact points land just right of
  // it: atan2(±1, -1e-300) rounds to ±fl(pi/2), whose cosine is positive.
  // The proxies' signs alone fill all four quadrants; the certificate's
  // axis margins leave these two out, and the exact rule decides (the
  // largest gap is then fl(pi) exactly).
  for (const double tol : {0.0, 1e-12}) {
    const KknpsAlgorithm algo({.k = 1, .halfplane_tolerance = tol});
    for (const double tiny : {-1e-300, -5e-324, -1e-20, 1e-20}) {
      const std::vector<Vec2> offsets{{tiny, 1.0}, {tiny, -1.0}, {1.0, 0.5}, {1.0, -0.5}};
      const LookResult got = lazy_look(algo, LocalFrame::identity(), offsets, false, 1);
      const LookResult want = eager_look(algo, LocalFrame::identity(), offsets, false, 1);
      expect_same_look(got, want, 0);
    }
  }
}

TEST(LazyKknps, ProxiesStayWellInsideTheSlack) {
  // The certified bound |P - q| <= kPerceptionSlack·(|q.x| + |q.y|) has a
  // wide margin over what libm's polar round trip actually does.
  std::mt19937_64 rng(77);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  double worst = 0.0;
  for (int i = 0; i < 200000; ++i) {
    const LocalFrame frame = frame_of_kind(1 + i % 3, rng);
    const Vec2 offset{u(rng) * std::ldexp(1.0, i % 40 - 20), u(rng)};
    const core::StagedOffset s = frame.stage(offset, rng);
    const Vec2 q = s.proxy();
    const Vec2 p = frame.finish(s);
    const double l1 = std::abs(q.x) + std::abs(q.y);
    if (l1 == 0.0) continue;
    worst = std::max(worst, (p - q).norm() / l1);
  }
  EXPECT_LT(worst, core::kPerceptionSlack / 16.0) << worst;
}

TEST(LazyKknps, DenseLookMaterializesFewNeighbours) {
  // dense_fsync's shape: n = 1024 on a 0.05 grid, rotated frames, one FSync
  // round of ~680-neighbour Looks. Exact positions are built only inside
  // bands, so each Look materializes a few dozen at most (and a robot
  // surrounded on all sides none).
  const std::vector<Vec2> initial = metrics::grid_configuration(1024, 0.05);
  const KknpsAlgorithm algo({.k = 1});
  sched::FSyncScheduler scheduler(initial.size());
  core::Engine engine(initial, algo, scheduler, {});
  std::size_t total = 0, worst = 0, seen = 0;
  for (std::size_t i = 0; i < initial.size(); ++i) {
    ASSERT_TRUE(engine.step());
    total += engine.look_materializations();
    worst = std::max(worst, engine.look_materializations());
    seen += engine.trace().records().back().seen;
  }
  EXPECT_GT(seen, 500u * initial.size());
  EXPECT_LE(worst, 40u);
  EXPECT_LE(total, 12u * initial.size());
}

}  // namespace
}  // namespace cohesion::algo
