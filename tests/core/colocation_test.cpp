// The hashed co-location kernel must reproduce the all-pairs reference
// (tests/oracles/colocation_oracle.hpp) bit for bit: the same survivors in
// the same order when collapsing, the same flags when detecting
// multiplicity. The differential fuzz leans on the cases that separate the
// two: exact duplicates, grid columns sharing an x value, offsets on and
// around eps that chain non-transitively, signed zeros, non-finite and
// overflowing coordinates; the boundary tests on positions at and around
// cell edges, where the cells' arithmetic changes regime, and DBL_MAX.
// The certificate cases plant one pair at and around eps across the
// coarse cells' edges (multiples of a power of two, so a dyadic anchor is
// an edge whatever width a snapshot gets), on exact and staged snapshots,
// and inside one cell shared with other bases of clustered snapshots,
// where the certificate compares the pair itself. The same certificate on
// a plain point set at a margin (the engine's Look instant) is checked
// against an exact pairwise test.
#include "core/colocation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "core/error_model.hpp"
#include "metrics/configurations.hpp"
#include "oracles/colocation_oracle.hpp"

namespace cohesion::core {
namespace {

using geom::Vec2;

std::vector<ObservedRobot> observed(const std::vector<Vec2>& points) {
  std::vector<ObservedRobot> out;
  for (const Vec2 p : points) out.push_back({p, false});
  return out;
}

/// The kernel on an exact snapshot of `nb`, written back.
void collapse(ColocationIndex& index, std::vector<ObservedRobot>& nb) {
  Snapshot s(nb);
  index.collapse(s);
  nb = s.neighbours();
}
void flag(ColocationIndex& index, std::vector<ObservedRobot>& nb) {
  Snapshot s(nb);
  index.flag(s);
  nb = s.neighbours();
}

void expect_same(const std::vector<ObservedRobot>& got, const std::vector<ObservedRobot>& want,
                 std::uint64_t seed) {
  ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].position.x),
              std::bit_cast<std::uint64_t>(want[i].position.x))
        << "seed " << seed << " at " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].position.y),
              std::bit_cast<std::uint64_t>(want[i].position.y))
        << "seed " << seed << " at " << i;
    EXPECT_EQ(got[i].multiplicity, want[i].multiplicity) << "seed " << seed << " at " << i;
  }
}

/// A snapshot mixing every shape the kernel must get right.
std::vector<ObservedRobot> random_snapshot(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  const std::size_t k = std::uniform_int_distribution<std::size_t>(0, 320)(rng);
  // Offsets straddling eps: below, at (rounding either way) and above it.
  const double nudges[] = {0.0,    0.4e-12, 0.6e-12,  1e-12,  -1e-12,
                           1.1e-12, -0.6e-12, 2e-12, -2e-12, 0.5e-12};
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<Vec2> pts;
  for (std::size_t i = 0; i < k; ++i) {
    const int shape = static_cast<int>(rng() % 16);
    if (pts.empty() || shape < 4) {
      pts.push_back({unit(rng), unit(rng)});
    } else if (shape < 7) {  // exact duplicate
      pts.push_back(pts[rng() % pts.size()]);
    } else if (shape < 11) {  // near duplicate, possibly chaining
      const Vec2 base = pts[rng() % pts.size()];
      pts.push_back({base.x + nudges[rng() % 10], base.y + nudges[rng() % 10]});
    } else if (shape < 13) {  // grid column / row: one shared coordinate
      const Vec2 base = pts[rng() % pts.size()];
      pts.push_back(rng() % 2 ? Vec2{base.x, unit(rng)} : Vec2{unit(rng), base.y});
    } else if (shape == 13) {  // signed zeros
      pts.push_back({rng() % 2 ? 0.0 : -0.0, rng() % 2 ? 0.0 : -0.0});
    } else if (shape == 14) {  // non-finite
      const double bad[] = {std::numeric_limits<double>::quiet_NaN(), inf, -inf};
      pts.push_back(rng() % 2 ? Vec2{bad[rng() % 3], unit(rng)} : Vec2{unit(rng), bad[rng() % 3]});
    } else {  // huge: differences overflow to inf
      const double big = std::numeric_limits<double>::max();
      pts.push_back({rng() % 2 ? big : -big, rng() % 2 ? big : unit(rng)});
    }
  }
  return observed(pts);
}

TEST(Colocation, CollapseKeepsFirstOfEachLocationInOrder) {
  ColocationIndex index;
  auto nb = observed({{0.5, 0.5}, {0.1, 0.2}, {0.5, 0.5}, {0.1, 0.2 + 0.5e-12}, {0.3, 0.0}});
  collapse(index, nb);
  ASSERT_EQ(nb.size(), 3u);
  EXPECT_EQ(nb[0].position, Vec2(0.5, 0.5));
  EXPECT_EQ(nb[1].position, Vec2(0.1, 0.2));
  EXPECT_EQ(nb[2].position, Vec2(0.3, 0.0));
}

TEST(Colocation, ChainsCollapseGreedilyAgainstKeptOnly) {
  // 0 ~ a ~ b but 0 !~ b: the middle link decides the outcome, and which
  // robot comes first in the snapshot decides the middle link.
  const double a = 0.7e-12, b = 1.4e-12;
  ColocationIndex index;
  auto ends_kept = observed({{0.0, 0.0}, {a, 0.0}, {b, 0.0}});
  collapse(index, ends_kept);
  ASSERT_EQ(ends_kept.size(), 2u);
  EXPECT_EQ(ends_kept[1].position.x, b);

  auto middle_kept = observed({{a, 0.0}, {0.0, 0.0}, {b, 0.0}});
  collapse(index, middle_kept);
  ASSERT_EQ(middle_kept.size(), 1u);
  EXPECT_EQ(middle_kept[0].position.x, a);

  auto flagged = observed({{0.0, 0.0}, {a, 0.0}, {b, 0.0}, {5.0, 0.0}});
  flag(index, flagged);
  EXPECT_TRUE(flagged[0].multiplicity && flagged[1].multiplicity && flagged[2].multiplicity);
  EXPECT_FALSE(flagged[3].multiplicity);
}

TEST(Colocation, NonFinitePositionsAreNeverColocated) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  ColocationIndex index;
  auto nb = observed({{nan, 0.0}, {nan, 0.0}, {inf, 1.0}, {inf, 1.0}, {0.0, 0.0}});
  collapse(index, nb);
  EXPECT_EQ(nb.size(), 5u);
  flag(index, nb);
  for (const auto& o : nb) EXPECT_FALSE(o.multiplicity);
}

TEST(Colocation, DenseGridMatchesReference) {
  // The dense-start shape: a whole lattice in view, every column sharing
  // its x exactly, plus a co-located copy of every third site.
  std::vector<Vec2> pts;
  for (int i = 0; i < 30; ++i) {
    for (int j = 0; j < 30; ++j) pts.push_back({0.05 * (i - 15), 0.05 * (j - 15)});
  }
  for (std::size_t i = 0; i < 900; i += 3) pts.push_back(pts[(i * 7) % 900]);
  ColocationIndex index;
  for (const bool detect : {false, true}) {
    auto got = observed(pts), want = observed(pts);
    if (detect) {
      flag(index, got);
      oracles::flag_colocated(want);
    } else {
      collapse(index, got);
      oracles::collapse_colocated(want);
    }
    expect_same(got, want, detect);
  }
}

TEST(Colocation, GatheredClusterCostsLinearWork) {
  // A converged swarm: 1000 distinct x values inside one eps-wide strip,
  // in shuffled snapshot order. Every equal-x run holds one key, so an
  // unbounded walk to the single kept key would cost O(m) per query.
  constexpr std::size_t m = 1000;
  std::vector<Vec2> pts;
  for (std::size_t i = 0; i < m; ++i) pts.push_back({0.3 + static_cast<double>(i) * 1e-15, 0.3});
  std::shuffle(pts.begin(), pts.end(), std::mt19937_64(7));
  ColocationIndex index;
  for (const bool detect : {false, true}) {
    auto got = observed(pts), want = observed(pts);
    if (detect) {
      flag(index, got);
      oracles::flag_colocated(want);
    } else {
      collapse(index, got);
      oracles::collapse_colocated(want);
    }
    expect_same(got, want, detect);
    EXPECT_FALSE(index.certified()) << "detect " << detect;
    EXPECT_LE(index.probes(), 4 * m) << "detect " << detect;
  }
}

TEST(Colocation, CrowdedCoarseCellDeclinesWithLinearWork) {
  // 1000 bases pairwise 1e-6 apart around (0.3, 0.3) and one far basis
  // that stretches the box to ~60 wide: the certificate's cells are wider
  // than the cluster, whose bases all chain in one cell. The certificate
  // declines past its chain cap instead of comparing all pairs, and the
  // hash, whose cells hold one basis each, decides in linear work.
  std::vector<Vec2> pts;
  for (int i = 0; i < 40; ++i) {
    for (int j = 0; j < 25; ++j) {
      pts.push_back({0.3 + 1e-6 * static_cast<double>(i), 0.3 + 1e-6 * static_cast<double>(j)});
    }
  }
  pts.push_back({60.0, -60.0});
  std::shuffle(pts.begin(), pts.end(), std::mt19937_64(3));
  const std::size_t m = pts.size();
  ColocationIndex index;
  for (const bool detect : {false, true}) {
    auto got = observed(pts), want = observed(pts);
    if (detect) {
      flag(index, got);
      oracles::flag_colocated(want);
    } else {
      collapse(index, got);
      oracles::collapse_colocated(want);
    }
    expect_same(got, want, detect);
    EXPECT_FALSE(index.certified()) << "detect " << detect;
    EXPECT_LE(index.probes(), 4 * m) << "detect " << detect;
  }
}

/// Both rules on `pts` in every listed order, against the reference.
void expect_matches_reference(ColocationIndex& index, std::vector<Vec2> pts,
                              std::uint64_t tag) {
  for (std::uint64_t order = 0; order < 4; ++order) {
    if (order > 0) std::shuffle(pts.begin(), pts.end(), std::mt19937_64(order));
    auto got = observed(pts), want = observed(pts);
    collapse(index, got);
    oracles::collapse_colocated(want);
    expect_same(got, want, tag * 10 + order);
    got = observed(pts);
    want = observed(pts);
    flag(index, got);
    oracles::flag_colocated(want);
    expect_same(got, want, tag * 10 + order);
  }
}

/// Coordinates at and around `b`: ulp steps, ±eps (and the ulps around
/// those), ±eps/2 and ±2·eps.
std::vector<double> around(double b) {
  constexpr double e = kColocationEps;
  std::vector<double> out;
  for (const double c : {b, b + e, b - e}) {
    double up = c, down = c;
    out.push_back(c);
    for (int k = 0; k < 3; ++k) {
      up = std::nextafter(up, std::numeric_limits<double>::infinity());
      down = std::nextafter(down, -std::numeric_limits<double>::infinity());
      out.push_back(up);
      out.push_back(down);
    }
  }
  for (const double d : {e / 2, -e / 2, 2 * e, -2 * e}) out.push_back(b + d);
  return out;
}

TEST(Colocation, CellBoundariesMatchReference) {
  // Cells are 8·eps wide: 0.3 sits exactly on an edge (0.3 / 8e-12 rounds
  // to 3.75e10), cell indices reach 2^52 (truncated through int64 below,
  // the value itself above) and 2^53 (where stepping to the next cell
  // switches from +1 to nextafter) near 3.6e4 and 7.2e4, and DBL_MAX /
  // 8e-12 overflows to an infinite cell.
  constexpr double w = 8.0 * kColocationEps;
  const double edges[] = {0.3,          -0.3,         0.0,           w,
                          -w,           kColocationEps, 0x1p52 * w,  -0x1p52 * w,
                          0x1p53 * w,   -0x1p53 * w,  DBL_MAX,       -DBL_MAX,
                          DBL_MAX / 2};
  ColocationIndex index;
  std::uint64_t tag = 0;
  for (const double bx : edges) {
    const std::vector<double> xs = around(bx);
    // One row at y = 0.3 (also a cell edge) and one column at the same
    // edge on both axes.
    std::vector<Vec2> pts;
    for (const double x : xs) pts.push_back({x, 0.3});
    for (const double y : xs) pts.push_back({bx, y});
    expect_matches_reference(index, pts, ++tag);
    if (HasFailure()) return;
  }
}

TEST(Colocation, PartnersAcrossZeroAreFound) {
  // eps and -1e-30 are co-located (eps + 1e-30 rounds to eps), and
  // fl(eps - eps) = 0 is their lower probe edge: a floored cell would put
  // -1e-30 in the cell below and miss the pair.
  ColocationIndex index;
  auto nb = observed({{kColocationEps, 0.0}, {-1e-30, 0.0}, {0.0, -kColocationEps},
                      {0.0, 1e-30}});
  auto want = nb;
  flag(index, nb);
  oracles::flag_colocated(want);
  expect_same(nb, want, 0);
  for (const auto& o : nb) EXPECT_TRUE(o.multiplicity);
  expect_matches_reference(index,
                           {{kColocationEps, 0.0}, {-1e-30, 0.0}, {-kColocationEps, 0.0},
                            {1e-30, -0.0}, {-0.0, kColocationEps}},
                           1);
}

TEST(Colocation, EpsStripColumnCostsLinearWork) {
  // A column of m x values inside one eps-wide strip with y values far
  // apart: no pair is co-located, and every query's cells hold only itself.
  // The y values reach past the certificate's window, so the hash decides.
  constexpr std::size_t m = 1000;
  std::vector<Vec2> pts;
  for (std::size_t i = 0; i < m; ++i) {
    pts.push_back({0.3 + static_cast<double>(i) * 1e-15, static_cast<double>(i)});
  }
  std::shuffle(pts.begin(), pts.end(), std::mt19937_64(11));
  ColocationIndex index;
  auto got = observed(pts), want = observed(pts);
  flag(index, got);
  oracles::flag_colocated(want);
  expect_same(got, want, 0);
  EXPECT_FALSE(index.certified());
  EXPECT_LE(index.probes(), 4 * m);
  got = observed(pts);
  collapse(index, got);
  EXPECT_EQ(got.size(), m);
  EXPECT_FALSE(index.certified());
  EXPECT_LE(index.probes(), 4 * m);
}

TEST(Colocation, DifferentialFuzzAgainstAllPairsReference) {
  // One index reused across every snapshot, as the engine reuses it.
  ColocationIndex index;
  for (std::uint64_t seed = 1; seed <= 3000; ++seed) {
    const auto snapshot = random_snapshot(seed);
    auto got = snapshot, want = snapshot;
    collapse(index, got);
    oracles::collapse_colocated(want);
    expect_same(got, want, seed);

    got = snapshot;
    want = snapshot;
    flag(index, got);
    oracles::flag_colocated(want);
    expect_same(got, want, seed);
    if (HasFailure()) return;
  }
}

/// Both rules on `pts` against the reference; returns how many of the two
/// calls the certificate decided.
int expect_matches_reference_once(ColocationIndex& index, const std::vector<Vec2>& pts,
                                  std::uint64_t tag) {
  auto got = observed(pts), want = observed(pts);
  collapse(index, got);
  const int certified = index.certified() ? 1 : 0;
  oracles::collapse_colocated(want);
  expect_same(got, want, tag);
  got = observed(pts);
  want = observed(pts);
  flag(index, got);
  oracles::flag_colocated(want);
  expect_same(got, want, tag);
  return certified + (index.certified() ? 1 : 0);
}

/// A k x k lattice over [lo, hi)² with spacing (hi - lo) / k, jittered by
/// up to a tenth of it: no two points come within 0.8 spacings, so coarse
/// cells of at most half a spacing hold one point each.
std::vector<Vec2> jittered_lattice(std::size_t k, double lo, double hi, std::mt19937_64& rng) {
  const double step = (hi - lo) / static_cast<double>(k);
  std::uniform_real_distribution<double> jitter(-0.1 * step, 0.1 * step);
  std::vector<Vec2> pts;
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      pts.push_back({lo + (static_cast<double>(i) + 0.5) * step + jitter(rng),
                     lo + (static_cast<double>(j) + 0.5) * step + jitter(rng)});
    }
  }
  return pts;
}

/// `x` moved by `k` ulps (down for negative k).
double ulps(double x, int k) {
  const double to = k < 0 ? -std::numeric_limits<double>::infinity()
                          : std::numeric_limits<double>::infinity();
  for (int i = 0; i < std::abs(k); ++i) x = std::nextafter(x, to);
  return x;
}

/// Separations at and around eps: eps and its neighbouring doubles, the
/// coordinate's ulps around fl(anchor - eps) (as offsets), eps/2 and 2·eps.
std::vector<double> separations(double anchor) {
  constexpr double e = kColocationEps;
  std::vector<double> out{e / 2, 2 * e};
  for (int k = -3; k <= 3; ++k) {
    out.push_back(ulps(e, k));
    out.push_back(anchor - ulps(anchor - e, k));
  }
  return out;
}

/// The engine's Look on `offsets` through `frame` with the index, against
/// perceiving every offset and the all-pairs reference; the same RNG
/// stream feeds both. Returns whether the index's call was certified.
bool expect_staged_matches_reference(ColocationIndex& index, const LocalFrame& frame,
                                     const std::vector<Vec2>& offsets, bool detect,
                                     std::uint64_t seed) {
  std::mt19937_64 lazy_rng(seed), eager_rng(seed);
  Snapshot snap(frame);
  for (const Vec2 o : offsets) snap.stage(o, lazy_rng);
  detect ? index.flag(snap) : index.collapse(snap);
  const bool certified = index.certified();
  std::vector<ObservedRobot> want;
  for (const Vec2 o : offsets) want.push_back({frame.perceive(o, eager_rng), false});
  detect ? oracles::flag_colocated(want) : oracles::collapse_colocated(want);
  expect_same(snap.neighbours(), want, seed);
  EXPECT_TRUE(lazy_rng == eager_rng) << "seed " << seed;
  return certified;
}

/// m in 2..64 points in one to four clusters of random spread around
/// random centres in [-1, 1]²: no lattice, and clusters crowd several
/// bases into one coarse cell.
std::vector<Vec2> clustered_points(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  const double spreads[] = {0.5, 0.25, 0.1, 0.05};
  const std::size_t m = 2 + rng() % 63, clusters = 1 + rng() % 4;
  std::vector<Vec2> centres;
  std::vector<double> spread;
  for (std::size_t c = 0; c < clusters; ++c) {
    centres.push_back({unit(rng), unit(rng)});
    spread.push_back(spreads[rng() % 4]);
  }
  std::vector<Vec2> pts;
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t c = rng() % clusters;
    pts.push_back({centres[c].x + spread[c] * unit(rng), centres[c].y + spread[c] * unit(rng)});
  }
  return pts;
}

/// The certificate's threshold (core/colocation.hpp) on a snapshot whose
/// proxies are `pts`: eps plus twice the largest band plus 2^-79, with no
/// band on an exact snapshot.
double certificate_h(const std::vector<Vec2>& pts, bool staged) {
  double band = 0.0;
  for (const Vec2 p : pts) {
    if (staged) band = std::max(band, kPerceptionSlack * (std::abs(p.x) + std::abs(p.y)));
  }
  return kColocationEps + 2.0 * band + 0x1p-79;
}

/// `pts` with a partner of pts[rng() % size] inserted at a random place:
/// `d` plus `k` ulps of the coordinate away on x, on y, on both, or on x
/// with the y values eps/2 apart.
std::vector<Vec2> with_planted_pair(std::vector<Vec2> pts, double d, int k, std::mt19937_64& rng) {
  const Vec2 p = pts[rng() % pts.size()];
  Vec2 q = p;
  const int axes = static_cast<int>(rng() % 4);
  if (axes != 1) q.x = ulps(p.x + d, k);
  if (axes == 1 || axes == 2) q.y = ulps(p.y + d, k);
  if (axes == 3) q.y = p.y + kColocationEps / 2;
  pts.insert(pts.begin() + static_cast<std::ptrdiff_t>(rng() % (pts.size() + 1)), q);
  return pts;
}

TEST(Colocation, CertificateFuzzWithPlantedPairsAtCellEdges) {
  // Sparse snapshots (a jittered lattice, which the certificate passes)
  // with one planted pair whose separation straddles eps, placed across a
  // coarse-cell edge (a dyadic anchor: cells are power-of-two wide and
  // aligned to their width), near it, and at the bounding box's extremes.
  // Every result must match the reference bit for bit. The certificate
  // compares a point near an edge with the cells across it, so it decides
  // exactly the snapshots whose pair is more than its h apart on some
  // axis, wherever the pair sits, and the fuzz sees both outcomes.
  constexpr double e = kColocationEps;
  const double h = certificate_h({}, false);
  const double anchors[] = {0.0, 0.5, -0.5, 0.25, -0.375, 0.125, 1.0, -1.0};
  ColocationIndex index;
  std::mt19937_64 rng(2024);
  std::size_t decided = 0, declined = 0;
  std::uint64_t tag = 0;
  const std::size_t sides[] = {2, 3, 5, 8, 13, 21, 31};  // m up to ~960
  for (const double anchor : anchors) {
    for (const double d : separations(anchor)) {
      // Near the edge: the pair shifted down by a few ulps, by eps/2, by
      // eps and by 3·eps, so the lower point's margin crosses h.
      for (const double shift : {0.0, ulps(anchor, -2) - anchor, -e / 2, -e, -3 * e}) {
        for (const int shape : {0, 1, 2, 3, 4}) {
          const double top = anchor + shift, bottom = top - d, other = 0.6 * anchor + 0.01;
          Vec2 lo{bottom, other}, hi{top, other};  // across a column edge
          if (shape == 1) {                         // across a row edge
            lo = {other, bottom};
            hi = {other, top};
          } else if (shape == 2) {  // across a corner
            lo = {bottom, bottom};
            hi = {top, top};
          } else if (shape == 4) {  // across a corner, the other diagonal
            lo = {bottom, top};
            hi = {top, bottom};
          } else if (shape == 3) {  // across a column edge, eps/2 apart in y
            hi.y += e / 2;
          }
          // The lattice keeps clear of the pair and of the box's outer
          // rows, so anchors ±1 are the box's extremes.
          std::vector<Vec2> pts;
          for (const Vec2 p : jittered_lattice(sides[tag % 7], -0.95, 0.95, rng)) {
            if (std::max(std::abs(p.x - lo.x), std::abs(p.y - lo.y)) > 0.3) pts.push_back(p);
          }
          const bool lo_first = rng() % 2 != 0;
          for (const Vec2 p : {lo_first ? lo : hi, lo_first ? hi : lo}) {
            pts.insert(pts.begin() + static_cast<std::ptrdiff_t>(rng() % (pts.size() + 1)), p);
          }
          const int c = expect_matches_reference_once(index, pts, ++tag);
          const bool apart = std::abs(hi.x - lo.x) > h || std::abs(hi.y - lo.y) > h;
          EXPECT_EQ(c, apart ? 2 : 0) << "tag " << tag;
          decided += static_cast<std::size_t>(c);
          declined += static_cast<std::size_t>(2 - c);
          if (HasFailure()) return;
        }
      }
    }
  }
  EXPECT_GT(decided, 2000u);
  EXPECT_GT(declined, 2500u);

  // Random clustered snapshots, whose bases share coarse cells, each as
  // drawn and then with a pair planted at eps and at the certificate's h,
  // up to 3 ulps either way: the pair lies inside one cell and is decided
  // by the chain compare. Exact snapshots, staged ones in the identity
  // frame (the proxies are the points, with bands) and staged ones in
  // rotated, mirrored frames. The certificate decides nearly every
  // snapshot as drawn.
  ErrorModel rotated;
  rotated.allow_reflection = true;
  std::size_t drawn = 0, drawn_certified = 0;
  for (int s = 0; s < 1500; ++s) {
    const std::vector<Vec2> pts = clustered_points(rng);
    const int kind = s % 3;  // exact, identity-staged, rotated-staged
    const LocalFrame frame = kind == 2 ? LocalFrame::sample(rotated, rng) : LocalFrame::identity();
    const auto check = [&](const std::vector<Vec2>& q) {
      ++tag;
      if (kind == 0) return expect_matches_reference_once(index, q, tag);
      return static_cast<int>(expect_staged_matches_reference(index, frame, q, false, tag)) +
             static_cast<int>(expect_staged_matches_reference(index, frame, q, true, tag));
    };
    drawn += 2;
    drawn_certified += static_cast<std::size_t>(check(pts));
    for (const double d : {e, certificate_h(pts, kind != 0)}) {
      for (int k = -3; k <= 3; ++k) check(with_planted_pair(pts, d, k, rng));
    }
    if (HasFailure()) return;
  }
  EXPECT_GE(drawn_certified * 100, drawn * 95) << drawn_certified << " of " << drawn;
}

TEST(Colocation, CertificateEdgeCasesMatchReference) {
  constexpr double e = kColocationEps;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  ColocationIndex index;
  std::uint64_t tag = 0;
  // m = 0, 1, 2: nothing to certify, one basis, one pair either way.
  for (const auto& pts : std::vector<std::vector<Vec2>>{
           {}, {{0.3, 0.3}}, {{0.3, 0.3}, {0.3 + e, 0.3}}, {{0.3, 0.3}, {0.3 + 2 * e, 0.3}},
           {{0.5, 0.5}, {0.5 - e / 2, 0.5}}, {{0.25, 0.0}, {ulps(0.25 - e, 1), 0.0}}}) {
    expect_matches_reference_once(index, pts, ++tag);
  }
  // One shared x (then y) value: a box flat on one axis, with and without
  // a pair eps apart on the other.
  std::mt19937_64 rng(5);
  for (const bool swap : {false, true}) {
    for (const double gap : {e, 2 * e, 0.01}) {
      std::vector<Vec2> pts;
      for (int i = 0; i < 200; ++i) pts.push_back({0.125, -1.0 + 0.01 * i});
      pts.push_back({0.125, 0.5 - gap});
      if (swap) {
        for (Vec2& p : pts) std::swap(p.x, p.y);
      }
      const int c = expect_matches_reference_once(index, pts, ++tag);
      if (gap == 0.01) {
        EXPECT_EQ(c, 0) << "duplicate site";
      }
    }
    std::vector<Vec2> pts;
    for (int i = 0; i < 200; ++i) pts.push_back({0.125, -1.0 + 0.01 * i + 0.001});
    if (swap) {
      for (Vec2& p : pts) std::swap(p.x, p.y);
    }
    EXPECT_EQ(expect_matches_reference_once(index, pts, ++tag), 2) << "flat box";
  }
  // Non-finite coordinates mixed into a certifiable snapshot: skipped, and
  // the rest still certifies; with a planted pair it still matches.
  const std::vector<Vec2> lattice = jittered_lattice(10, -1.0, 1.0, rng);
  std::vector<Vec2> pts = lattice;
  for (const Vec2 b : {Vec2{nan, 0.5}, Vec2{0.5, nan}, Vec2{inf, 0.5}, Vec2{-inf, -inf}}) {
    pts.insert(pts.begin() + static_cast<std::ptrdiff_t>(rng() % pts.size()), b);
  }
  EXPECT_EQ(expect_matches_reference_once(index, pts, ++tag), 2) << "non-finite skipped";
  pts.push_back({lattice[7].x + e, lattice[7].y});
  EXPECT_EQ(expect_matches_reference_once(index, pts, ++tag), 0);
  // Coordinates beyond the window (|coord| > 64): the certificate declines.
  for (const double far : {64.5, -100.0, 1e300}) {
    std::vector<Vec2> wide = jittered_lattice(10, -1.0, 1.0, rng);
    wide.push_back({far, 0.0});
    EXPECT_EQ(expect_matches_reference_once(index, wide, ++tag), 0) << far;
    wide.push_back({far, e});
    expect_matches_reference_once(index, wide, ++tag);
  }
  // Right at the window's edge the certificate still decides.
  std::vector<Vec2> edge = jittered_lattice(10, -60.0, 60.0, rng);
  edge.push_back({64.0, -64.0});
  EXPECT_EQ(expect_matches_reference_once(index, edge, ++tag), 2);
}

TEST(Colocation, CertificateOnStagedSnapshotsMatchesReference) {
  // Staged snapshots carry bands (2^-45 of each proxy's L1 norm), and the
  // certificate's edge margin must cover them. A pair planted across the
  // edge at x = 16 (a multiple of every cell width these snapshots get)
  // with its proxies eps plus a few ulps apart is co-located on exact
  // positions whenever the polar round trip pulls the two together; the
  // sweep must contain such pairs. Frames with distance noise certify the
  // lattice on their own.
  constexpr double e = kColocationEps;
  ColocationIndex index;
  std::size_t proxy_apart_exact_colocated = 0, certified = 0;
  std::uint64_t seed = 0;
  for (int yi = 0; yi < 160; ++yi) {
    const double y0 = 0.1 * yi + 0.013;
    for (int k = -3; k <= 3; ++k) {
      std::mt19937_64 rng(++seed);
      std::vector<Vec2> offsets = jittered_lattice(12, -8.0, 8.0, rng);
      const Vec2 lo{ulps(16.0 - e, k), y0}, hi{16.0, y0};
      offsets.insert(offsets.begin() + static_cast<std::ptrdiff_t>(rng() % offsets.size()), lo);
      offsets.push_back(hi);
      const LocalFrame identity = LocalFrame::identity();
      const Vec2 plo = identity.perceive(lo, rng), phi = identity.perceive(hi, rng);
      if (hi.x - lo.x > e && geom::almost_equal(plo, phi, e)) ++proxy_apart_exact_colocated;
      for (const bool detect : {false, true}) {
        certified += expect_staged_matches_reference(index, identity, offsets, detect, seed);
      }
      if (HasFailure()) return;
    }
  }
  EXPECT_GT(proxy_apart_exact_colocated, 0u);
  EXPECT_EQ(certified, 0u) << "every planted pair lies within h of the edge";
  // Distance noise and rotation: no pair lands within eps, and the
  // certificate decides the jittered lattice with non-zero bands.
  ErrorModel noisy;
  noisy.distance_delta = 0.05;
  noisy.allow_reflection = true;
  for (std::uint64_t s = 1; s <= 200; ++s) {
    std::mt19937_64 rng(s);
    const LocalFrame frame = LocalFrame::sample(noisy, rng);
    const double half = s % 2 ? 1.0 : 16.0;
    const std::vector<Vec2> offsets = jittered_lattice(4 + s % 20, -half, half, rng);
    certified += expect_staged_matches_reference(index, frame, offsets, s % 3 == 0, s * 7);
    if (HasFailure()) return;
  }
  EXPECT_GT(certified, 150u);
}

TEST(Colocation, DenseGridLookCertifiesWithoutProbes) {
  // The dense_fsync Looks: a 32 x 32 grid 0.05 apart seen with V = 1 in
  // rotated frames, ~680 staged neighbours per Look. The certificate
  // decides each outright: no hash claim, no probe.
  const std::vector<Vec2> grid = metrics::grid_configuration(1024, 0.05);
  ColocationIndex index;
  std::size_t looks = 0, seen = 0;
  for (std::size_t observer = 0; observer < grid.size(); observer += 37) {
    const Vec2 self = grid[observer];
    std::vector<Vec2> offsets;
    for (const Vec2 p : grid) {
      if (p != self && self.distance_to(p) <= 1.0) offsets.push_back(p - self);
    }
    std::mt19937_64 rng(observer);
    const LocalFrame frame = LocalFrame::sample(ErrorModel{}, rng);
    for (const bool detect : {false, true}) {
      EXPECT_TRUE(expect_staged_matches_reference(index, frame, offsets, detect, observer))
          << observer;
      EXPECT_EQ(index.probes(), 0u) << observer;
    }
    ++looks;
    seen += offsets.size();
  }
  EXPECT_GT(seen, 600 * looks);
  EXPECT_LT(seen, 760 * looks);
}

TEST(Colocation, IdentityFrameLatticeLooksCertify) {
  // dense_fsync's first round in unrotated frames: the 32 x 32 grid 0.05
  // apart seen with V = 1, every offset axis-aligned. Offsets such as
  // 0.24999999999999997 lie within h below a power-of-two cell edge; the
  // certificate compares them with the cells across the edge instead of
  // declining, so every Look certifies without the hash. Every 37th Look
  // is also checked against the reference.
  const std::vector<Vec2> grid = metrics::grid_configuration(1024, 0.05);
  const LocalFrame identity = LocalFrame::identity();
  ColocationIndex index;
  std::size_t certified = 0;
  for (std::size_t observer = 0; observer < grid.size(); ++observer) {
    const Vec2 self = grid[observer];
    std::vector<Vec2> offsets;
    for (const Vec2 p : grid) {
      if (p != self && self.distance_to(p) <= 1.0) offsets.push_back(p - self);
    }
    for (const bool detect : {false, true}) {
      if (observer % 37 == 0) {
        certified += expect_staged_matches_reference(index, identity, offsets, detect, observer);
      } else {
        std::mt19937_64 rng(observer);
        Snapshot snap(identity);
        for (const Vec2 o : offsets) snap.stage(o, rng);
        detect ? index.flag(snap) : index.collapse(snap);
        certified += index.certified() ? 1 : 0;
      }
      EXPECT_EQ(index.probes(), 0u) << observer;
    }
  }
  EXPECT_EQ(certified, 2 * grid.size());
}

/// Whether a and b differ by more than m exactly (m a positive double):
/// fl(|a - b|) decides unless it rounds to m, then the rounding error of
/// the difference (TwoSum) does.
bool exactly_apart(double a, double b, double m) {
  const double d = a - b;
  const double bb = d - a;
  const double err = (a - (d - bb)) + (-b - bb);  // a - b == d + err
  const double ad = std::abs(d);
  return ad > m || (ad == m && err != 0.0 && (err > 0.0) == (d > 0.0));
}

TEST(Colocation, PointSetCertificateImpliesMarginApart) {
  // certify_apart(points, margin), the Look instant's certificate: a
  // certified set is pairwise more than the margin apart on some axis,
  // exactly. Jittered lattices and clustered sets, at margins from the
  // instant's ~2.4e-12 up to a tenth of the spacing, each as drawn and with
  // a pair planted at the margin and up to 3 ulps either way, on x, on y,
  // on a diagonal or an anti-diagonal; some across dyadic cell edges,
  // far from the origin, and in wide boxes.
  std::mt19937_64 rng(77);
  ColocationIndex index;
  std::size_t certified = 0, declined = 0;
  const double margins[] = {look_instant_margin(1.0, 0.0), 1e-9, 1e-4, 0.01};
  for (int s = 0; s < 600; ++s) {
    std::vector<Vec2> pts =
        s % 2 ? clustered_points(rng) : jittered_lattice(3 + s % 20, -1.0, 1.0, rng);
    const double shift = s % 5 == 0 ? 0x1p20 : (s % 5 == 1 ? -12.0 : 0.0);
    for (Vec2& p : pts) p = p + Vec2{shift, shift};
    if (s % 7 == 0) pts.push_back({shift + 5000.0, shift});  // a wide box
    const double margin = margins[s % 4];
    std::vector<std::vector<Vec2>> sets{pts};
    for (int k = -3; k <= 3; ++k) {
      std::vector<Vec2> q = pts;
      const Vec2 p = q[rng() % q.size()];
      const double dx = ulps(p.x + margin, k) - p.x;
      const double dy = ulps(p.y + margin, k) - p.y;
      const Vec2 along[] = {{dx, 0.0}, {0.0, dy}, {dx, dy}, {dx, -dy}};
      Vec2 partner = p + along[rng() % 4];
      if (s % 3 == 0) partner = {ulps(0.5 + margin, k), 0.5 - margin / 2};  // across an edge
      if (s % 3 == 0) q.push_back({0.5, 0.5});
      q.insert(q.begin() + static_cast<std::ptrdiff_t>(rng() % (q.size() + 1)), partner);
      sets.push_back(q);
    }
    for (const std::vector<Vec2>& q : sets) {
      bool apart = true;
      for (std::size_t i = 0; i < q.size() && apart; ++i) {
        for (std::size_t j = i + 1; j < q.size() && apart; ++j) {
          apart = exactly_apart(q[i].x, q[j].x, margin) || exactly_apart(q[i].y, q[j].y, margin);
        }
      }
      const bool c = index.certify_apart(q, margin);
      EXPECT_TRUE(apart || !c) << "set " << s << " margin " << margin;
      (c ? certified : declined) += 1;
    }
    if (HasFailure()) return;
  }
  EXPECT_GT(certified, 1000u);
  EXPECT_GT(declined, 1000u);
  // The dense grid certifies at the instant's margin and declines with a
  // robot within it of another; a gathered swarm declines.
  std::vector<Vec2> grid = metrics::grid_configuration(1024, 0.05);
  const double h = look_instant_margin(1.0, 0.0);
  EXPECT_TRUE(index.certify_apart(grid, h));
  grid[700] = grid[300] + Vec2{0.0, h / 2};
  EXPECT_FALSE(index.certify_apart(grid, h));
  EXPECT_FALSE(index.certify_apart(std::vector<Vec2>(40, Vec2{0.3, 0.3}), h));
}

}  // namespace
}  // namespace cohesion::core
