// Property tests for the SoA kernel's building blocks (src/core/soa_pool):
// the SoA segment pool must mirror KinematicState bit-for-bit across
// arbitrary commit histories, the certified squared-distance bounds must
// never misclassify against the exact hypot predicate, and the neighbor
// filter fed any sorted-unique candidate superset — from IncrementalGrid's
// buckets (including its outlier list) or the full id range — must
// reproduce the exact visible set, in ascending order, with bit-identical
// offsets. Modeled on the 400-seed IncrementalGrid
// commit-history fuzz.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <random>
#include <vector>

#include "core/kinematics.hpp"
#include "core/soa_pool.hpp"
#include "core/spatial_index.hpp"

namespace cohesion::core {
namespace {

using geom::Vec2;

/// The engine's exact visibility predicate, verbatim.
bool exact_visible(Vec2 self, Vec2 p, double r, bool open_ball) {
  const double d = self.distance_to(p);
  return open_ball ? (d < r) : (d <= r + kVisibilityEpsilon);
}

/// Brute reference: ids (ascending) of visible points, self removed.
std::vector<std::size_t> brute_visible(const std::vector<Vec2>& pts, std::size_t self,
                                       double r, bool open_ball) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (i == self) continue;
    if (exact_visible(pts[self], pts[i], r, open_ball)) out.push_back(i);
  }
  return out;
}

/// Load `filter` with the candidates at the fixed points `pts`: robots
/// settled in a SoaSegmentPool sit exactly at their points at any time.
void gather_points(SoaNeighborFilter& filter, SoaSegmentPool& pool, const std::vector<Vec2>& pts,
                   const std::vector<std::size_t>& candidates, std::size_t self) {
  pool.reset(pts);
  filter.gather_segments(pool, candidates, self, 0.0);
}

/// Survivor ids of a filter pass, plus a bit-identity check on the offsets.
std::vector<std::size_t> survivors_of(const SoaNeighborFilter& f, const std::vector<Vec2>& pts,
                                      Vec2 self) {
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < f.survivor_count(); ++i) {
    const std::size_t id = f.survivor_id(i);
    ids.push_back(id);
    const Vec2 off = f.survivor_offset(i);
    // The stored offset must be the scalar paths' p - self, to the bit.
    EXPECT_EQ(off.x, pts[id].x - self.x);
    EXPECT_EQ(off.y, pts[id].y - self.y);
  }
  return ids;
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
        // Open ball of radius b: d < b. Closed ball is exercised by the
        // filter tests via b = r + kVisibilityEpsilon; the certificates
        // must hold for both comparisons, so check the stricter (<) and
        // the looser (<=) against the same bounds.
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

TEST(SoaSegmentPool, MatchesKinematicStateBitExactlyAcrossCommitHistories) {
  // Random committed segment histories — the exact inputs the engine feeds
  // both tiers — with zero-duration moves, nil segments and multi-cell
  // lurches. After every commit the pool must answer position_at
  // bit-identically to KinematicState at the Look time, mid-move, and far
  // in the future; a fresh commit must replace the robot's lanes
  // immediately (no stale entries).
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    std::mt19937_64 rng(seed);
    const std::size_t n = 1 + seed % 24;
    std::uniform_real_distribution<double> u(-4.0, 4.0);
    std::vector<Vec2> initial;
    for (std::size_t i = 0; i < n; ++i) initial.push_back({u(rng), u(rng)});

    KinematicState kin(initial);
    SoaSegmentPool pool;
    pool.reset(initial);
    ASSERT_EQ(pool.robot_count(), n);

    std::vector<Time> busy(n, 0.0);
    Time frontier = 0.0;
    std::uniform_real_distribution<double> dur(0.0, 1.0);
    std::uniform_int_distribution<std::size_t> pick(0, n - 1);
    for (int step = 0; step < 30; ++step) {
      const RobotId rob = pick(rng);
      Activation a;
      a.robot = rob;
      a.t_look = std::max(frontier, busy[rob]) + dur(rng);
      a.t_move_start = a.t_look + dur(rng);
      a.t_move_end = a.t_move_start + (step % 7 == 0 ? 0.0 : dur(rng));
      a.realized_fraction = 1.0;
      const Vec2 from = kin.position_at(rob, a.t_look);
      const double reach = step % 11 == 0 ? 3.0 : 0.5;
      std::uniform_real_distribution<double> hop(-reach, reach);
      const Vec2 realized = from + Vec2{hop(rng), hop(rng)};
      const ActivationRecord rec{a, from, realized, realized, 0};
      kin.commit(rec);
      pool.commit(rec);
      frontier = a.t_look;
      busy[rob] = a.t_move_end;

      for (const Time t :
           {a.t_look, a.t_move_start, (a.t_move_start + a.t_move_end) / 2.0, a.t_move_end,
            a.t_move_end + 0.25, frontier + 50.0}) {
        for (RobotId q = 0; q < n; ++q) {
          if (t < kin.segment_start(q)) continue;  // both tiers undefined there
          const Vec2 want = kin.position_at(q, t);
          const Vec2 got = pool.position_at(q, t);
          EXPECT_EQ(got.x, want.x) << "seed " << seed << " step " << step << " robot " << q;
          EXPECT_EQ(got.y, want.y) << "seed " << seed << " step " << step << " robot " << q;
        }
      }
    }
  }
}

TEST(SoaNeighborFilter, MatchesExactVisibleSetOnAnySortedUniqueSuperset) {
  // 400-seed fuzz over clustered point sets with exact-boundary pairs and
  // duplicates: fed (a) the full id range and (b) IncrementalGrid's
  // candidates over settled robots, the filter must output exactly the
  // brute visible set — ascending, unique, self removed — for open and
  // closed balls. Superset choice must never change the result.
  IncrementalGrid grid;
  SoaSegmentPool pool;
  SoaNeighborFilter filter;
  std::vector<std::size_t> all_ids, cand;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    std::mt19937_64 rng(seed * 31 + 7);
    const std::size_t n = 2 + seed % 40;
    const double r = 0.05 + (seed % 7) * 0.33;
    const bool open_ball = seed % 2 == 0;
    std::uniform_real_distribution<double> u(-3.0, 3.0);
    std::vector<Vec2> pts;
    for (std::size_t i = 0; i < n; ++i) pts.push_back({u(rng), u(rng)});
    // Exact-boundary pair: distance exactly r along an axis (borderline
    // band traffic), plus an exact duplicate of point 0.
    if (n >= 3) {
      pts[1] = pts[0] + Vec2{r, 0.0};
      pts[2] = pts[0];
    }

    grid.reset(r, pts);
    all_ids.resize(n);
    std::iota(all_ids.begin(), all_ids.end(), std::size_t{0});

    for (std::size_t self = 0; self < n; self += 1 + n / 6) {
      const Vec2 q = pts[self];
      const auto want = brute_visible(pts, self, r, open_ball);

      gather_points(filter, pool, pts, all_ids, self);
      filter.filter(q, r, open_ball);
      EXPECT_EQ(survivors_of(filter, pts, q), want) << "seed " << seed << " full ids";

      grid.candidates_near(q, r, cand);
      // candidates_near must itself be a sorted-unique superset of the
      // predicate-true set (plus self, which is indexed).
      EXPECT_TRUE(std::is_sorted(cand.begin(), cand.end()));
      EXPECT_EQ(std::adjacent_find(cand.begin(), cand.end()), cand.end());
      for (const std::size_t id : want) {
        EXPECT_TRUE(std::binary_search(cand.begin(), cand.end(), id))
            << "seed " << seed << " id " << id << " missing from candidates";
      }
      gather_points(filter, pool, pts, cand, self);
      filter.filter(q, r, open_ball);
      EXPECT_EQ(survivors_of(filter, pts, q), want) << "seed " << seed << " grid candidates";
    }
  }
}

TEST(SoaNeighborFilter, GatherSegmentsMatchesScalarEvalThroughIncrementalCandidates) {
  // The incremental-path shape end to end, engine-free: random commit
  // histories drive KinematicState + SoaSegmentPool + IncrementalGrid in
  // lockstep (teleport lurches exercise the outlier list); at forward query
  // times the pool-gathered, certified-filtered survivors must equal the
  // brute visible set over the scalar cache's exact positions.
  SoaNeighborFilter filter;
  std::vector<std::size_t> cand;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    std::mt19937_64 rng(seed);
    const std::size_t n = 2 + seed % 20;
    const double cell = 0.3 + (seed % 5) * 0.4;
    const double r = 0.1 + 1.2 * ((seed / 5) % 4) / 4.0;
    const bool open_ball = seed % 2 == 0;
    std::uniform_real_distribution<double> u(-4.0, 4.0);
    std::vector<Vec2> initial;
    for (std::size_t i = 0; i < n; ++i) initial.push_back({u(rng), u(rng)});

    KinematicState kin(initial);
    SoaSegmentPool pool;
    pool.reset(initial);
    IncrementalGrid inc;
    inc.reset(cell, initial);

    std::vector<Time> busy(n, 0.0);
    Time frontier = 0.0;
    std::uniform_real_distribution<double> dur(0.0, 1.0);
    std::uniform_int_distribution<std::size_t> pick(0, n - 1);
    for (int step = 0; step < 25; ++step) {
      const RobotId rob = pick(rng);
      Activation a;
      a.robot = rob;
      a.t_look = std::max(frontier, busy[rob]) + dur(rng);
      a.t_move_start = a.t_look + dur(rng);
      a.t_move_end = a.t_move_start + (step % 7 == 0 ? 0.0 : dur(rng));
      a.realized_fraction = 1.0;
      const Vec2 from = kin.position_at(rob, a.t_look);
      // Mostly short hops; every 9th step a teleport far beyond the
      // segment-span cap, parking the robot on the outlier list.
      const double reach = step % 9 == 0 ? 40.0 * cell : 0.6 * cell;
      std::uniform_real_distribution<double> hop(-reach, reach);
      const Vec2 realized = from + Vec2{hop(rng), hop(rng)};
      const ActivationRecord rec{a, from, realized, realized, 0};
      kin.commit(rec);
      pool.commit(rec);
      inc.update(rob, from, realized, a.t_move_end);
      frontier = a.t_look;
      busy[rob] = a.t_move_end;

      for (const Time t : {frontier, frontier + 0.4, frontier + 50.0}) {
        inc.advance_to(t);
        std::vector<Vec2> exact(n);
        for (RobotId q = 0; q < n; ++q) exact[q] = kin.position_at(q, t);
        for (std::size_t self = 0; self < n; self += 1 + n / 5) {
          const Vec2 q = exact[self];
          inc.candidates_near(q, r, cand);
          filter.gather_segments(pool, cand, self, t);
          filter.filter(q, r, open_ball);
          EXPECT_EQ(survivors_of(filter, exact, q), brute_visible(exact, self, r, open_ball))
              << "seed " << seed << " step " << step << " t " << t;
        }
      }
      frontier += 50.0;
      for (RobotId q = 0; q < n; ++q) busy[q] = std::max(busy[q], frontier);
    }
  }
}

TEST(SoaNeighborFilter, DegenerateInputsStayExact) {
  // Huge coordinates overflow dx*dx + dy*dy to inf, zero and negative radii
  // degenerate the certified bounds, and an open ball of radius 0 must
  // reject even exact coincidence. In every case the filter must agree
  // with the brute predicate.
  const std::vector<Vec2> pts{{0.0, 0.0}, {1e200, 1e200}, {-1e200, 5.0},
                              {0.0, 0.0}, {0.5, 0.0},     {3e7, -4e7}};
  std::vector<std::size_t> ids(pts.size());
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  SoaSegmentPool pool;
  SoaNeighborFilter filter;
  for (const double r : {0.0, 1e-12, 0.5, 1e8, 1e200, 1e308, -2.0}) {
    for (const bool open_ball : {false, true}) {
      for (std::size_t self = 0; self < pts.size(); ++self) {
        gather_points(filter, pool, pts, ids, self);
        filter.filter(pts[self], r, open_ball);
        EXPECT_EQ(survivors_of(filter, pts, pts[self]),
                  brute_visible(pts, self, r, open_ball))
            << "r " << r << " open " << open_ball << " self " << self;
      }
    }
  }
}

TEST(SoaNeighborFilter, GatherSkipsSelfAndPreservesAscendingOrder) {
  const std::vector<Vec2> pts{{0.0, 0.0}, {0.1, 0.0}, {0.2, 0.0}, {0.3, 0.0}};
  const std::vector<std::size_t> cands{0, 1, 2, 3};
  SoaSegmentPool pool;
  SoaNeighborFilter filter;
  gather_points(filter, pool, pts, cands, 2);
  filter.filter(pts[2], 10.0, false);
  const std::vector<std::size_t> want{0, 1, 3};
  ASSERT_EQ(filter.survivor_count(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(filter.survivor_id(i), want[i]);
}

}  // namespace
}  // namespace cohesion::core
