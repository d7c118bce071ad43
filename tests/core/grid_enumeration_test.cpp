// Both grids emit candidate ids through core::IdBitmap instead of sorting
// them. These tests pin the bitmap against std::sort + std::unique, first
// directly and then through each grid's queries against a model of its
// buckets: ids 63/64/65 on word edges, robot counts that are not a
// multiple of 64 (or of 4096, the summary word), repeated marks from
// multi-cell segments, outliers and clamped far cells that alias.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <random>
#include <set>
#include <vector>

#include "core/spatial_index.hpp"

namespace cohesion::core {
namespace {

using geom::Vec2;

std::vector<std::size_t> sort_unique(std::vector<std::size_t> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

TEST(IdBitmap, TakeAscendingMatchesSortUnique) {
  IdBitmap marks;
  std::vector<std::size_t> got;
  for (const std::size_t n : {1, 63, 64, 65, 100, 4095, 4096, 4097, 10000}) {
    marks.reset(n);
    std::mt19937_64 rng(n);
    for (int round = 0; round < 40; ++round) {
      std::vector<std::size_t> ids;
      const std::size_t count = rng() % (round % 4 == 0 ? 3 * n : 40);
      for (std::size_t i = 0; i < count; ++i) {
        // Word and summary edges first, then anything below n.
        const std::size_t edges[] = {0, 63, 64, 65, 4095, 4096, n - 1};
        const std::size_t id = rng() % 3 == 0 ? edges[rng() % 7] : rng() % n;
        if (id < n) ids.push_back(id);
      }
      for (const std::size_t id : ids) marks.mark(id);
      got.assign({7, 7});  // appended to, not overwritten
      marks.take_ascending(got);
      std::vector<std::size_t> want{7, 7};
      for (const std::size_t id : sort_unique(ids)) want.push_back(id);
      ASSERT_EQ(got, want) << "n " << n << " round " << round;
    }
    // Taking left every bit clear.
    got.clear();
    marks.take_ascending(got);
    EXPECT_TRUE(got.empty());
  }
}

// The grids' cell arithmetic, restated: floor(coord / cell) with NaN at 0,
// clamped to ±9e15, packed as two 32-bit halves (so far cells alias).
std::int64_t model_cell(double coord, double cell) {
  double c = std::floor(coord * (1.0 / cell));
  if (std::isnan(c)) c = 0.0;
  return static_cast<std::int64_t>(std::clamp(c, -9.0e15, 9.0e15));
}

std::uint64_t model_key(std::int64_t cx, std::int64_t cy) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
         static_cast<std::uint32_t>(cy);
}

/// Keys of the cells a query scans, or nothing when it scans every id.
std::optional<std::set<std::uint64_t>> model_window(Vec2 q, double r, double cell, std::size_t n) {
  const double rq = std::max(r, 0.0) + kVisibilityEpsilon;
  const std::int64_t cx0 = model_cell(q.x - rq, cell), cx1 = model_cell(q.x + rq, cell);
  const std::int64_t cy0 = model_cell(q.y - rq, cell), cy1 = model_cell(q.y + rq, cell);
  const std::uint64_t sx = static_cast<std::uint64_t>(cx1 - cx0) + 1;
  const std::uint64_t sy = static_cast<std::uint64_t>(cy1 - cy0) + 1;
  if (sx > 64 || sy > 64 || sx * sy > n + 9) return std::nullopt;
  std::set<std::uint64_t> keys;
  for (std::int64_t cx = cx0; cx <= cx1; ++cx) {
    for (std::int64_t cy = cy0; cy <= cy1; ++cy) keys.insert(model_key(cx, cy));
  }
  return keys;
}

/// Points around the origin, a few far away (clamped, so they alias), and
/// a cluster on the word edge ids 63/64/65 when there are that many.
std::vector<Vec2> grid_points(std::mt19937_64& rng, std::size_t n) {
  std::uniform_real_distribution<double> u(-4.0, 4.0);
  std::vector<Vec2> pts;
  for (std::size_t i = 0; i < n; ++i) {
    const int shape = static_cast<int>(rng() % 20);
    if (shape == 0) {
      pts.push_back({rng() % 2 ? 1e300 : -1e17, u(rng)});
    } else if (shape == 1 && !pts.empty()) {
      pts.push_back(pts[rng() % pts.size()]);
    } else {
      pts.push_back({u(rng), u(rng)});
    }
  }
  for (std::size_t i = 63; i < std::min<std::size_t>(n, 66); ++i) pts[i] = {0.25, 0.25};
  return pts;
}

TEST(SpatialGrid, EnumerationMatchesSortUniqueOfWindowCells) {
  const double cell = 1.0;
  SpatialGrid grid(cell);
  std::vector<std::size_t> got, multiset;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    std::mt19937_64 rng(seed);
    const std::size_t sizes[] = {1, 2, 63, 64, 65, 66, 100, 130, 200};
    const std::size_t n = sizes[seed % 9];
    const std::vector<Vec2> pts = grid_points(rng, n);
    grid.rebuild(pts);
    for (int query = 0; query < 12; ++query) {
      const Vec2 q = query % 3 == 0 ? Vec2{0.25, 0.25} : pts[rng() % n];
      const double radii[] = {0.0, 0.5, 1.0, 2.5, 40.0};
      const double r = radii[rng() % 5];
      const auto window = model_window(q, r, cell, n);
      // The old enumeration: every chain of every window cell, then
      // sort + unique.
      multiset.clear();
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t key = model_key(model_cell(pts[i].x, cell), model_cell(pts[i].y, cell));
        if (!window || window->count(key) != 0) multiset.push_back(i);
      }
      grid.candidates_within(q, r, got);
      ASSERT_EQ(got, sort_unique(multiset)) << "seed " << seed << " query " << query;
      for (const bool open_ball : {false, true}) {
        std::erase_if(multiset, [&](std::size_t i) {
          const double d = q.distance_to(pts[i]);
          return open_ball ? !(d < r) : !(d <= r + kVisibilityEpsilon);
        });
        grid.neighbors_within(q, r, open_ball, got);
        ASSERT_EQ(got, sort_unique(multiset)) << "seed " << seed << " query " << query;
      }
    }
  }
}

/// IncrementalGrid's buckets, restated: the cells of each robot's segment
/// box, an outlier flag for boxes spanning 8+ cells, and the pending
/// collapse onto the end cell.
struct BucketModel {
  double cell = 1.0;
  std::vector<std::vector<std::uint64_t>> keys;
  std::vector<bool> outlier, pending;
  std::vector<double> settle;
  std::vector<Vec2> end;

  void reset(const std::vector<Vec2>& initial) {
    const std::size_t n = initial.size();
    keys.assign(n, {});
    outlier.assign(n, false);
    pending.assign(n, false);
    settle.assign(n, 0.0);
    end = initial;
    for (std::size_t r = 0; r < n; ++r) collapse(r);
  }
  void collapse(std::size_t r) {
    keys[r] = {model_key(model_cell(end[r].x, cell), model_cell(end[r].y, cell))};
    outlier[r] = false;
    pending[r] = false;
  }
  void update(std::size_t r, Vec2 from, Vec2 to, double settle_time) {
    end[r] = to;
    settle[r] = settle_time;
    std::int64_t cx0 = model_cell(std::min(from.x, to.x), cell);
    std::int64_t cx1 = model_cell(std::max(from.x, to.x), cell);
    std::int64_t cy0 = model_cell(std::min(from.y, to.y), cell);
    std::int64_t cy1 = model_cell(std::max(from.y, to.y), cell);
    keys[r].clear();
    outlier[r] = cx1 - cx0 >= 8 || cy1 - cy0 >= 8;
    pending[r] = outlier[r] || cx1 > cx0 || cy1 > cy0;
    if (outlier[r]) return;
    for (std::int64_t cx = cx0; cx <= cx1; ++cx) {
      for (std::int64_t cy = cy0; cy <= cy1; ++cy) keys[r].push_back(model_key(cx, cy));
    }
  }
  void advance_to(double t) {
    for (std::size_t r = 0; r < keys.size(); ++r) {
      if (pending[r] && settle[r] <= t) collapse(r);
    }
  }
  /// The old enumeration: one entry per (robot, window cell) membership
  /// plus every outlier, then sort + unique.
  std::vector<std::size_t> candidates(Vec2 q, double r) const {
    const std::size_t n = keys.size();
    const auto window = model_window(q, r, cell, n);
    std::vector<std::size_t> multiset;
    for (std::size_t i = 0; i < n; ++i) {
      if (!window || outlier[i]) {
        multiset.push_back(i);
        continue;
      }
      for (const std::uint64_t key : keys[i]) {
        if (window->count(key) != 0) multiset.push_back(i);
      }
    }
    return sort_unique(multiset);
  }
};

TEST(IncrementalGrid, EnumerationMatchesSortUniqueOfBucketModel) {
  IncrementalGrid inc;
  BucketModel model;
  std::vector<std::size_t> got;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    std::mt19937_64 rng(seed);
    const std::size_t sizes[] = {1, 63, 64, 65, 66, 100, 129, 200};
    const std::size_t n = sizes[seed % 8];
    std::vector<Vec2> pos = grid_points(rng, n);
    inc.reset(model.cell, pos);
    model.reset(pos);
    double t = 0.0;
    std::uniform_real_distribution<double> u(0.0, 1.0);
    for (int step = 0; step < 30; ++step) {
      const std::size_t r = rng() % n;
      const Vec2 from = pos[r];
      const int kind = static_cast<int>(rng() % 10);
      // Mostly in-cell hops; multi-cell segments, teleports (outliers) and
      // jumps to clamped far cells now and then.
      const double reach = kind < 6 ? 0.3 : kind < 8 ? 2.5 : 30.0;
      Vec2 to = from + Vec2{reach * (2.0 * u(rng) - 1.0), reach * (2.0 * u(rng) - 1.0)};
      if (kind == 9 && step % 3 == 0) to = {1e300, -1e17};
      const double settle = t + (kind == 0 ? 0.0 : 2.0 * u(rng));
      inc.update(r, from, to, settle);
      model.update(r, from, to, settle);
      pos[r] = to;
      for (const double dt : {0.0, 0.7}) {
        t += dt;
        inc.advance_to(t);
        model.advance_to(t);
        for (int query = 0; query < 4; ++query) {
          const Vec2 q = query == 0 ? Vec2{0.25, 0.25} : pos[rng() % n];
          const double radii[] = {0.5, 1.0, 2.5, 40.0};
          const double radius = radii[rng() % 4];
          inc.candidates_near(q, radius, got);
          ASSERT_EQ(got, model.candidates(q, radius))
              << "seed " << seed << " step " << step << " query " << query;
        }
      }
    }
  }
}

}  // namespace
}  // namespace cohesion::core
