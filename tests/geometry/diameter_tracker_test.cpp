// geom::DiameterTracker against its reference, geom::set_diameter: the
// same diameter bit for bit over seeded sequences of configurations that
// move 0, 1, a few or all points per call, change the point count, and
// hold lattice duplicates, collinear runs and signed zeros. The tracker
// also reports how many points each call sorted, which the sequences pin:
// every point on the first call, after a count change, when more than half
// the points changed and on the next change after that, else exactly the
// points whose bits changed. Part of the certification battery of
// architecture contract 12 (tools/check_kernel_certification.sh).
#include "geometry/convex_hull.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace cohesion::geom {
namespace {

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

bool same_bits(Vec2 a, Vec2 b) { return bits(a.x) == bits(b.x) && bits(a.y) == bits(b.y); }

/// One tracker call held to set_diameter, and to the expected sort count.
void expect_tracks(DiameterTracker& tracker, const std::vector<Vec2>& points,
                   std::size_t expect_sorted, const std::string& where) {
  const double got = tracker.diameter(points);
  EXPECT_EQ(bits(got), bits(set_diameter(points))) << where << " n " << points.size();
  EXPECT_EQ(tracker.points_sorted(), expect_sorted) << where;
}

/// Point kinds a sequence draws from; each stresses one part of the
/// argument that the merged order is as good as std::sort's.
enum class Kind { uniform, lattice, collinear, signed_zero, kinds };

class PointSource {
 public:
  PointSource(Kind kind, std::uint64_t seed) : kind_(kind), rng_(seed) {}

  Vec2 next() {
    switch (kind_) {
      case Kind::uniform:
        return {real(-20.0, 20.0), real(-20.0, 20.0)};
      case Kind::lattice:  // a 5 x 5 lattice: most points are duplicates
        return {0.5 * int_in(-2, 2), 0.5 * int_in(-2, 2)};
      case Kind::collinear: {
        // Three lines, points at lattice steps along each: long collinear
        // runs on the hull's boundary, repeated x keys and duplicates.
        const double t = 0.25 * int_in(-8, 8);
        switch (int_in(0, 2)) {
          case 0: return {t, 1.0};
          case 1: return {2.0, t};
          default: return {t, t};
        }
      }
      default: {  // signed zeros next to a few small values
        static constexpr double kValues[] = {0.0, -0.0, 1.0, -1.0, 0.5};
        return {kValues[int_in(0, 4)], kValues[int_in(0, 4)]};
      }
    }
  }

  std::size_t count(std::size_t lo, std::size_t hi) {
    return std::uniform_int_distribution<std::size_t>(lo, hi)(rng_);
  }

 private:
  int int_in(int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng_); }
  double real(double lo, double hi) { return std::uniform_real_distribution<double>(lo, hi)(rng_); }

  Kind kind_;
  std::mt19937_64 rng_;
};

TEST(DiameterTracker, MatchesSetDiameterOverSeededSequences) {
  for (std::uint64_t seed = 0; seed < 240; ++seed) {
    const Kind kind = static_cast<Kind>(seed % static_cast<std::uint64_t>(Kind::kinds));
    PointSource src(kind, seed);
    std::size_t n = src.count(1, seed % 3 == 0 ? 300 : 40);
    std::vector<Vec2> points(n);
    for (Vec2& p : points) p = src.next();
    DiameterTracker tracker;
    expect_tracks(tracker, points, n, "seed " + std::to_string(seed) + " first call");
    // After a call where most points moved, the index array is rebuilt (n
    // sorted) by the next call that changes anything.
    bool stale = false;
    for (int step = 0; step < 30; ++step) {
      const std::string where = "seed " + std::to_string(seed) + " step " + std::to_string(step);
      const std::size_t what = src.count(0, 9);
      if (what == 0) {  // the point count changes: a full sort
        const std::size_t old_n = n;
        n = src.count(1, seed % 3 == 0 ? 300 : 40);
        if (n == old_n) ++n;
        points.resize(n);
        for (Vec2& p : points) p = src.next();
        expect_tracks(tracker, points, n, where + " resized");
        stale = false;
        continue;
      }
      // 0, 1, a few or all points move (a moved point may land on its
      // own bits again, which is no change).
      const std::size_t moves = what == 1   ? 0
                                : what <= 4 ? 1
                                : what <= 8 ? src.count(2, 8)
                                            : n;
      const std::vector<Vec2> before = points;
      for (std::size_t m = 0; m < moves; ++m) {
        points[moves == n ? m : src.count(0, n - 1)] = src.next();
      }
      std::size_t changed = 0;
      for (std::size_t i = 0; i < n; ++i) changed += !same_bits(points[i], before[i]);
      const bool most = 2 * changed > n;
      expect_tracks(tracker, points, most || (stale && changed > 0) ? n : changed, where);
      stale = most || (stale && changed == 0);
      if (what == 1) expect_tracks(tracker, points, 0, where + " repeated");
    }
  }
}

TEST(DiameterTracker, SignedZeroFlipsAreChangesWithTheSameDiameter) {
  std::vector<Vec2> points{{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}, {0.0, -0.0}};
  DiameterTracker tracker;
  expect_tracks(tracker, points, 4, "first");
  points[0] = {-0.0, 0.0};
  points[3] = {0.0, 0.0};
  expect_tracks(tracker, points, 2, "flipped");
  points[1] = {-0.0, -0.0};  // the hull collapses onto a segment
  expect_tracks(tracker, points, 1, "collapsed");
}

TEST(DiameterTracker, DegenerateSetsAndCountChanges) {
  DiameterTracker tracker;
  expect_tracks(tracker, {{3.0, 4.0}}, 1, "one point");
  expect_tracks(tracker, {{3.0, 4.0}}, 0, "one point again");
  expect_tracks(tracker, {{0.0, 0.0}, {3.0, 4.0}}, 2, "two points");
  expect_tracks(tracker, {{1.0, 1.0}, {1.0, 1.0}, {1.0, 1.0}}, 3, "all equal");
  expect_tracks(tracker, {{0.0, 0.0}, {1.0, 1.0}, {2.0, 2.0}}, 3, "collinear, 2 of 3 moved");
  expect_tracks(tracker, {{0.0, 0.0}, {1.0, 1.0}, {5.0, 5.0}}, 3, "1 of 3 moved, rebuilt");
  expect_tracks(tracker, {{0.0, 0.0}, {1.0, 1.0}, {6.0, 5.0}}, 1, "1 of 3 moved, merged");
  expect_tracks(tracker, {}, 0, "empty");
  expect_tracks(tracker, {{-1.0, 0.0}, {1.0, 0.0}}, 2, "after empty");
}

TEST(DiameterTracker, ConsecutiveMergesKeepEveryPoint) {
  // One point of ten moves per call, sixty calls in a row, all merged,
  // each to a new extreme on alternating sides: the diameter always joins
  // the points merged on the last two calls, so the previous call's must
  // still be in the array.
  std::vector<Vec2> points;
  for (int i = 0; i < 10; ++i) points.push_back({static_cast<double>(i), 0.0});
  DiameterTracker tracker;
  expect_tracks(tracker, points, 10, "first");
  for (int step = 1; step <= 60; ++step) {
    const double reach = 10.0 + step;
    points[static_cast<std::size_t>(step % 10)] = {step % 2 == 0 ? reach : -reach,
                                                   static_cast<double>(step % 3) - 1.0};
    expect_tracks(tracker, points, 1, "step " + std::to_string(step));
  }
}

TEST(DiameterTracker, MergesAMovedPointPastEqualKeys) {
  // Ten copies of one point and a far one; each call moves a single point
  // onto or off the duplicate run, so the merge lands inside equal keys.
  std::vector<Vec2> points(10, Vec2{1.0, 1.0});
  points.push_back({5.0, 5.0});
  DiameterTracker tracker;
  expect_tracks(tracker, points, 11, "first");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Vec2 old = points[i];
    points[i] = i % 2 == 0 ? Vec2{1.0, 1.0} : Vec2{1.0, 0.5 * static_cast<double>(i)};
    expect_tracks(tracker, points, same_bits(old, points[i]) ? 0 : 1,
                  "move " + std::to_string(i));
  }
}

}  // namespace
}  // namespace cohesion::geom
