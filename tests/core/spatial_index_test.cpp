#include "core/spatial_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <vector>

#include "core/kinematics.hpp"
#include "core/trace.hpp"
#include "core/visibility.hpp"
#include "geometry/vec2.hpp"

namespace cohesion::core {
namespace {

using geom::Vec2;

/// The ids IncrementalGrid::candidates_near visits, in visiting order.
std::vector<std::size_t> visited(IncrementalGrid& inc, Vec2 q, double r) {
  std::vector<std::size_t> ids;
  inc.candidates_near(q, r, [&](std::size_t id) { ids.push_back(id); });
  return ids;
}

std::vector<std::size_t> brute_neighbors(const std::vector<Vec2>& pts, Vec2 q, double r,
                                         bool open_ball) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const double d = q.distance_to(pts[i]);
    const bool vis = open_ball ? (d < r) : (d <= r + kVisibilityEpsilon);
    if (vis) out.push_back(i);
  }
  return out;
}

std::vector<std::pair<RobotId, RobotId>> brute_edges(const std::vector<Vec2>& pts, double v,
                                                     bool open_ball) {
  std::vector<std::pair<RobotId, RobotId>> edges;
  for (RobotId a = 0; a < pts.size(); ++a) {
    for (RobotId b = a + 1; b < pts.size(); ++b) {
      const double d = pts[a].distance_to(pts[b]);
      const bool vis = open_ball ? (d < v) : (d <= v + kVisibilityEpsilon);
      if (vis) edges.emplace_back(a, b);
    }
  }
  return edges;
}

/// Random point set with adversarial structure: exact duplicates and pairs
/// at exactly the query radius (so the closed/open boundary is exercised).
std::vector<Vec2> make_points(std::mt19937_64& rng, std::size_t n, double world, double r) {
  std::uniform_real_distribution<double> u(-world, world);
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) pts.push_back({u(rng), u(rng)});
  if (n >= 4) {
    pts[1] = pts[0];                         // exact duplicate
    pts[3] = pts[2] + Vec2{r, 0.0};          // pair at exactly distance r
  }
  return pts;
}

TEST(VisibilityGraph, RandomizedEquivalenceHarness1000Seeds) {
  // At and above 64 robots the constructor takes the grid branch; its edge
  // list must be the pairwise loop's, pair for pair and in order, for
  // closed and open balls, exact duplicates and pairs at exactly V.
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    std::mt19937_64 rng(seed);
    const std::size_t n = 64 + seed % 49;
    const double v = 0.05 + 2.0 * (seed % 7) / 7.0;
    const double world = 0.5 + 3.0 * (seed % 5) / 5.0;
    const bool open_ball = (seed / 7) % 2 == 0;
    const auto pts = make_points(rng, n, world, v);
    EXPECT_EQ(VisibilityGraph(pts, v, open_ball).edges(), brute_edges(pts, v, open_ball))
        << "seed " << seed;
  }
}

TEST(VisibilityGraph, CellSizeIndependence) {
  // The grid's cell is V: the edges must be exact whether the cells are far
  // smaller than the point spacing or hold the whole swarm in one.
  std::mt19937_64 rng(99);
  const auto pts = make_points(rng, 200, 3.0, 0.7);
  for (const double v : {0.05, 0.3, 0.7, 2.5, 100.0}) {
    for (const bool open_ball : {false, true}) {
      EXPECT_EQ(VisibilityGraph(pts, v, open_ball).edges(), brute_edges(pts, v, open_ball))
          << "v " << v << " open " << open_ball;
    }
  }
}

TEST(VisibilityGraph, DegenerateInputs) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(VisibilityGraph({}, 1.0).edges().empty());
  // Huge and non-finite coordinates must not trip the cell clamping: two
  // robots share a far cell, one sits at the origin, and the rest of the
  // 64 spread over clamped and NaN cells.
  std::vector<Vec2> far{{1e200, -1e200}, {1e200, -1e200}, {0.0, 0.0}};
  for (std::size_t i = far.size(); i < 64; ++i) {
    const double big = 1e17 * static_cast<double>(i);
    far.push_back(i % 3 == 0 ? Vec2{kNaN, 0.0} : i % 3 == 1 ? Vec2{-big, kInf} : Vec2{big, big});
  }
  for (const bool open_ball : {false, true}) {
    // Zero, negative and NaN radii take the pairwise branch, an infinite
    // radius the grid with its fallback cell: every branch is the loop's.
    for (const double v : {1.0, 0.0, -1.0, kNaN, kInf, 1e300}) {
      EXPECT_EQ(VisibilityGraph(far, v, open_ball).edges(), brute_edges(far, v, open_ball))
          << "v " << v << " open " << open_ball;
    }
  }
  EXPECT_TRUE(VisibilityGraph(far, 1.0).has_edge(0, 1));
  // Coincident robots see each other at radius 0 in the closed ball only.
  const std::vector<Vec2> stacked(64, Vec2{0.5, -0.25});
  EXPECT_EQ(VisibilityGraph(stacked, 0.0).edges().size(), 64u * 63u / 2u);
  EXPECT_TRUE(VisibilityGraph(stacked, 0.0, /*open_ball=*/true).edges().empty());
  EXPECT_EQ(VisibilityGraph(stacked, kInf, /*open_ball=*/true).edges().size(), 64u * 63u / 2u);
}

TEST(VisibilityGraph, GridPathMatchesBruteForce) {
  // n above the grid threshold: the constructor takes the grid path; the
  // edge list must be identical (same pairs, same order) to the O(n^2) scan.
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    std::mt19937_64 rng(seed);
    const std::size_t n = 64 + seed % 150;
    const double v = 0.3 + (seed % 9) / 9.0;
    const bool open_ball = seed % 2 == 0;
    const auto pts = make_points(rng, n, 0.4 * std::sqrt(double(n)), v);
    const VisibilityGraph g(pts, v, open_ball);
    EXPECT_EQ(g.edges(), brute_edges(pts, v, open_ball)) << "seed " << seed;
  }
}

TEST(VisibilityGraph, StretchGridPathMatchesBruteForce) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    std::mt19937_64 rng(seed * 31 + 7);
    const std::size_t n = 64 + seed % 120;
    const double v = 0.4 + (seed % 5) / 5.0;
    const auto initial = make_points(rng, n, 0.4 * std::sqrt(double(n)), v);
    std::vector<Vec2> later = initial;
    std::uniform_real_distribution<double> jitter(-0.3, 0.3);
    for (Vec2& p : later) p += Vec2{jitter(rng), jitter(rng)};

    double brute = 0.0;
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a + 1; b < n; ++b) {
        if (initial[a].distance_to(initial[b]) <= v + kVisibilityEpsilon) {
          brute = std::max(brute, later[a].distance_to(later[b]) / v);
        }
      }
    }
    EXPECT_EQ(worst_initial_pair_stretch(initial, later, v), brute) << "seed " << seed;
  }
}

TEST(IncrementalGrid, FuzzAdvanceMatchesRebuildAcrossCommitHistories) {
  // Drive an IncrementalGrid through random committed segment histories —
  // the exact inputs the engine feeds it — and after every commit compare,
  // at several non-decreasing query times, the predicate-filtered candidate
  // set against the brute-force scan over the exact positions. Histories
  // include zero-duration moves, degenerate (nil) segments, multi-cell
  // moves and long idle spans that let settled robots collapse to their
  // end cell.
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    std::mt19937_64 rng(seed);
    const std::size_t n = 1 + seed % 24;
    const double cell = 0.3 + (seed % 5) * 0.4;
    const double r = 0.1 + 1.2 * ((seed / 5) % 4) / 4.0;
    const bool open_ball = seed % 2 == 0;
    std::uniform_real_distribution<double> u(-4.0, 4.0);

    std::vector<Vec2> initial;
    for (std::size_t i = 0; i < n; ++i) initial.push_back({u(rng), u(rng)});

    KinematicState kin(initial);
    IncrementalGrid inc;
    inc.reset(cell, initial);

    std::vector<Time> busy(n, 0.0);
    Time frontier = 0.0;
    std::uniform_real_distribution<double> dur(0.0, 1.0);
    std::uniform_int_distribution<std::size_t> pick(0, n - 1);
    std::vector<std::size_t> got;
    for (int step = 0; step < 40; ++step) {
      const RobotId rob = pick(rng);
      Activation a;
      a.robot = rob;
      a.t_look = std::max(frontier, busy[rob]) + dur(rng);
      a.t_move_start = a.t_look + dur(rng);
      a.t_move_end = a.t_move_start + (step % 7 == 0 ? 0.0 : dur(rng));
      a.realized_fraction = 1.0;
      const Vec2 from = kin.position_at(rob, a.t_look);
      // Mostly short hops; occasionally a multi-cell lurch.
      const double reach = step % 11 == 0 ? 3.0 : 0.6 * cell;
      std::uniform_real_distribution<double> hop(-reach, reach);
      const Vec2 realized = from + Vec2{hop(rng), hop(rng)};
      ActivationRecord rec{a, from, realized, realized, 0};
      kin.commit(rec);
      inc.update(rob, from, realized, a.t_move_end);
      frontier = a.t_look;
      busy[rob] = a.t_move_end;

      // Query at the commit's Look time, mid-move, and far in the future
      // (all robots settled) — times non-decreasing, as the engine's
      // forward-query contract requires.
      for (const Time t : {frontier, frontier + 0.3, frontier + 50.0}) {
        inc.advance_to(t);
        std::vector<Vec2> exact(n);
        for (RobotId q = 0; q < n; ++q) exact[q] = kin.position_at(q, t);
        for (std::size_t qi = 0; qi < n; ++qi) {
          const Vec2 q = exact[qi];
          got = visited(inc, q, r);
          // Predicate-filter the candidates exactly as the engine does.
          std::erase_if(got, [&](std::size_t i) {
            const double d = q.distance_to(exact[i]);
            return open_ball ? !(d < r) : !(d <= r + kVisibilityEpsilon);
          });
          EXPECT_EQ(got, brute_neighbors(exact, q, r, open_ball))
              << "seed " << seed << " step " << step << " t " << t;
        }
      }
      // The far-future advance settled everyone; continue committing past it
      // only with Look times that respect the non-decreasing contract.
      frontier += 50.0;
      for (RobotId q = 0; q < n; ++q) busy[q] = std::max(busy[q], frontier);
    }
  }
}

TEST(IncrementalGrid, TeleportSegmentsStayExactViaOutlierList) {
  // A segment spanning far more cells than any real move (bounded by ~the
  // visibility radius) parks the robot on the always-scanned outlier list;
  // queries must stay exact while it is in flight and after it settles.
  const std::vector<Vec2> initial{{0.0, 0.0}, {0.5, 0.0}, {100.0, 100.0}, {-3.0, 2.0}};
  IncrementalGrid inc;
  inc.reset(1.0, initial);
  KinematicState kin(initial);

  Activation a;
  a.robot = 2;
  a.t_look = 1.0;
  a.t_move_start = 1.0;
  a.t_move_end = 5.0;
  a.realized_fraction = 1.0;
  const Vec2 realized{0.25, 0.1};  // 100-cell teleport toward the cluster
  kin.commit({a, initial[2], realized, realized, 0});
  inc.update(2, initial[2], realized, a.t_move_end);

  std::vector<std::size_t> got;
  for (const Time t : {1.0, 2.5, 5.0, 9.0}) {
    inc.advance_to(t);
    std::vector<Vec2> exact(initial.size());
    for (RobotId q = 0; q < initial.size(); ++q) exact[q] = kin.position_at(q, t);
    for (RobotId q = 0; q < initial.size(); ++q) {
      got = visited(inc, exact[q], 1.0);
      std::erase_if(got, [&](std::size_t i) {
        return !(exact[q].distance_to(exact[i]) <= 1.0 + kVisibilityEpsilon);
      });
      EXPECT_EQ(got, brute_neighbors(exact, exact[q], 1.0, false)) << "t " << t;
    }
  }
}

TEST(IncrementalGrid, StaleSettleEntriesAreIgnoredAfterRecommit) {
  // Robot recommits before its previous segment's settle time: the stale
  // queue entry must not collapse the new segment's buckets.
  const std::vector<Vec2> initial{{0.0, 0.0}, {2.6, 0.0}};
  IncrementalGrid inc;
  inc.reset(1.0, initial);
  // First segment: long slow move rightward, would settle at t = 10.
  inc.update(0, {0.0, 0.0}, {1.8, 0.0}, 10.0);
  // Recommit at t = 3 (engine would only do this once the robot is free
  // again; here we only care about queue staleness): short move near the
  // second robot, settling at t = 4.
  inc.update(0, {1.8, 0.0}, {2.2, 0.0}, 4.0);
  inc.advance_to(10.0);  // pops both entries; only the live one may collapse
  std::vector<std::size_t> got;
  // Robot 0 rests at (2.2, 0): visible from robot 1 at distance 0.4.
  got = visited(inc, {2.6, 0.0}, 1.0);
  EXPECT_EQ(got, (std::vector<std::size_t>{0, 1}));
}

TEST(KinematicState, MatchesTraceReplayBitExactly) {
  // Replay random committed histories into both tiers and check the cache
  // agrees with the trace wherever the cache is defined (t >= its segment's
  // Look time) — including mid-move interpolation and degenerate segments.
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    std::mt19937_64 rng(seed);
    const std::size_t n = 1 + seed % 8;
    std::uniform_real_distribution<double> u(-5.0, 5.0);
    std::vector<Vec2> initial;
    for (std::size_t r = 0; r < n; ++r) initial.push_back({u(rng), u(rng)});

    Trace trace(initial);
    KinematicState kin(initial);
    std::vector<Time> busy(n, 0.0);
    Time frontier = 0.0;
    std::uniform_real_distribution<double> dur(0.0, 1.5);
    std::uniform_int_distribution<std::size_t> pick(0, n - 1);
    for (int step = 0; step < 60; ++step) {
      const RobotId r = pick(rng);
      Activation a;
      a.robot = r;
      a.t_look = std::max(frontier, busy[r]) + dur(rng);
      a.t_move_start = a.t_look + dur(rng);
      a.t_move_end = a.t_move_start + dur(rng);  // may be zero-length
      a.realized_fraction = 1.0;
      ActivationRecord rec{a, trace.position(r, a.t_look), {u(rng), u(rng)}, {u(rng), u(rng)}, 0};
      trace.record(rec);
      kin.commit(rec);
      frontier = a.t_look;
      busy[r] = a.t_move_end;

      for (RobotId q = 0; q < n; ++q) {
        for (const Time t : {frontier, frontier + 0.2, a.t_move_start, a.t_move_end,
                             a.t_move_end + 3.0}) {
          if (t < kin.segment_start(q)) continue;  // cache undefined there
          const Vec2 cached = kin.position_at(q, t);
          const Vec2 replayed = trace.position(q, t);
          EXPECT_EQ(cached.x, replayed.x) << "seed " << seed;
          EXPECT_EQ(cached.y, replayed.y) << "seed " << seed;
        }
      }
    }
    EXPECT_EQ(trace.end_time(), [&] {
      Time end = 0.0;
      for (const auto& rec : trace.records()) end = std::max(end, rec.activation.t_move_end);
      return end;
    }());
    for (RobotId r = 0; r < n; ++r) {
      std::size_t count = 0;
      for (const auto& rec : trace.records()) count += rec.activation.robot == r;
      EXPECT_EQ(trace.activation_count(r), count);
    }
  }
}

TEST(KinematicState, SegmentAccessorsDescribeTheCurrentSegment) {
  const std::vector<Vec2> initial{{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}};
  KinematicState kin(initial);
  const auto commit = [&](RobotId r, Time look, Vec2 to) {
    Activation a;
    a.robot = r;
    a.t_look = look;
    a.t_move_start = look;
    a.t_move_end = look + 0.5;
    a.realized_fraction = 1.0;
    kin.commit({a, initial[r], to, to, 0});
  };
  EXPECT_EQ(kin.segment_start(1), 0.0);
  EXPECT_EQ(kin.segment_end(1), 0.0);
  commit(2, 2.0, {2.0, 1.0});
  commit(1, 5.0, {1.0, 1.0});
  EXPECT_EQ(kin.segment_start(1), 5.0);
  EXPECT_EQ(kin.segment_end(1), 5.5);
  EXPECT_EQ(kin.segment_from(1), initial[1]);
  EXPECT_EQ(kin.segment_realized(1), (Vec2{1.0, 1.0}));
  EXPECT_EQ(kin.segment_realized(2), (Vec2{2.0, 1.0}));
  EXPECT_EQ(kin.segment_from(0), initial[0]);  // never activated
  EXPECT_EQ(kin.segment_realized(0), initial[0]);
}

}  // namespace
}  // namespace cohesion::core
