#include "core/spatial_index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace cohesion::core {

CertifiedBallBounds certified_ball_bounds(double b) {
  // Degenerate defaults: no lane certified in (d2 >= 0 > -1 never passes),
  // no lane certified out (d2 > inf never holds) — everything borderline.
  CertifiedBallBounds out{-1.0, std::numeric_limits<double>::infinity()};
  if (!std::isfinite(b) || b <= 0.0) return out;
  const double lo = b * (1.0 - kBandSlack);
  const double hi = b * (1.0 + kBandSlack);
  const double in2 = lo * lo;
  const double out2 = hi * hi;
  // Each bound is valid only if the slack survived rounding (it collapses
  // for denormal b), squaring stayed finite, AND the squared bound is in
  // the normal range. The last condition matters: for b near sqrt(DBL_MIN)
  // the squared distances underflow — lo*lo can flush to 0 while a point
  // with exact d > b also squares to 0, so d2 <= in2 would certify it
  // inside; symmetrically a denormal out2 loses far more relative
  // precision than the 1e-9 band budgets. A subnormal bound therefore
  // stays degenerate and those lanes take the exact check.
  constexpr double kMinNormal = std::numeric_limits<double>::min();
  if (lo < b && std::isfinite(in2) && in2 >= kMinNormal) out.definite_in2 = in2;
  if (hi > b && std::isfinite(out2) && out2 >= kMinNormal) out.definite_out2 = out2;
  return out;
}

namespace {

// Cells whose floored coordinate would overflow the packing range are clamped
// onto the boundary cell. Clamping (and the 32-bit key packing below) may
// alias distinct far-away cells onto one bucket; that only enlarges the
// candidate set, and the exact distance predicate discards the aliases, so
// query results are unaffected.
constexpr double kMaxCell = 9.0e15;

std::size_t next_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

std::uint64_t pack_cell_key(std::int64_t cx, std::int64_t cy) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(cy));
}

std::size_t mix_cell_key(std::uint64_t key) {
  // splitmix64 finalizer: adjacent cell keys must not cluster in the table.
  key += 0x9e3779b97f4a7c15ULL;
  key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ULL;
  key = (key ^ (key >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<std::size_t>(key ^ (key >> 31));
}

/// Per-axis cap on a segment's bucket span. Committed moves are bounded by
/// ~the visibility radius (= one cell side) plus motion error, so real
/// segments span <= 2-3 cells per axis; anything larger goes to the outlier
/// list rather than flooding the table.
constexpr std::int64_t kMaxSegmentSpan = 8;

}  // namespace

void IdBitmap::reset(std::size_t n) {
  words_.assign((n + 63) / 64, 0);
  summary_.assign((words_.size() + 63) / 64, 0);
}

std::int64_t IncrementalGrid::cell_of(double coord) const {
  double c = std::floor(coord * inv_cell_);
  if (std::isnan(c)) c = 0.0;
  c = std::clamp(c, -kMaxCell, kMaxCell);
  return static_cast<std::int64_t>(c);
}

std::size_t IncrementalGrid::find_slot(std::uint64_t key) const {
  if (table_key_.empty()) return static_cast<std::size_t>(-1);
  std::size_t i = mix_cell_key(key) & mask_;
  while (table_used_[i]) {
    if (table_key_[i] == key) return i;
    i = (i + 1) & mask_;
  }
  return static_cast<std::size_t>(-1);
}

void IncrementalGrid::grow_table(std::size_t min_slots) {
  const std::size_t want = next_pow2(std::max<std::size_t>(16, min_slots));
  if (want <= table_key_.size()) return;
  const std::vector<std::uint64_t> old_key = std::move(table_key_);
  const std::vector<std::int32_t> old_head = std::move(table_head_);
  const std::vector<bool> old_used = std::move(table_used_);
  table_key_.assign(want, 0);
  table_head_.assign(want, -1);
  table_used_.assign(want, false);
  mask_ = want - 1;
  for (std::size_t s = 0; s < old_key.size(); ++s) {
    if (!old_used[s]) continue;
    std::size_t i = mix_cell_key(old_key[s]) & mask_;
    while (table_used_[i]) i = (i + 1) & mask_;  // keys are unique
    table_used_[i] = true;
    table_key_[i] = old_key[s];
    table_head_[i] = old_head[s];
  }
}

std::size_t IncrementalGrid::find_or_insert_slot(std::uint64_t key) {
  if ((live_cells_ + 1) * 2 > table_key_.size()) grow_table(table_key_.size() * 2);
  std::size_t i = mix_cell_key(key) & mask_;
  while (table_used_[i]) {
    if (table_key_[i] == key) return i;
    i = (i + 1) & mask_;
  }
  table_used_[i] = true;
  table_key_[i] = key;
  table_head_[i] = -1;
  ++live_cells_;
  return i;
}

void IncrementalGrid::erase_slot(std::size_t slot) {
  // Backward-shift deletion (linear probing has no tombstones): pull every
  // displaced successor back over the hole so probe chains stay unbroken.
  table_used_[slot] = false;
  --live_cells_;
  std::size_t hole = slot;
  std::size_t j = slot;
  while (true) {
    j = (j + 1) & mask_;
    if (!table_used_[j]) break;
    const std::size_t home = mix_cell_key(table_key_[j]) & mask_;
    // Move j into the hole iff the hole lies on j's probe path (between its
    // home slot and j, cyclically).
    if (((hole - home) & mask_) < ((j - home) & mask_)) {
      table_used_[hole] = true;
      table_key_[hole] = table_key_[j];
      table_head_[hole] = table_head_[j];
      table_used_[j] = false;
      hole = j;
    }
  }
}

void IncrementalGrid::link(RobotId robot, std::uint64_t key) {
  const std::size_t slot = find_or_insert_slot(key);
  std::int32_t node;
  if (!free_nodes_.empty()) {
    node = free_nodes_.back();
    free_nodes_.pop_back();
  } else {
    node = static_cast<std::int32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  Node& nd = nodes_[node];
  nd.key = key;
  nd.robot = static_cast<std::int32_t>(robot);
  nd.prev = -1;
  nd.next = table_head_[slot];
  if (nd.next >= 0) nodes_[nd.next].prev = node;
  table_head_[slot] = node;
  robot_nodes_[robot].push_back(node);
}

void IncrementalGrid::unlink(std::int32_t node) {
  const Node nd = nodes_[node];
  if (nd.next >= 0) nodes_[nd.next].prev = nd.prev;
  if (nd.prev >= 0) {
    nodes_[nd.prev].next = nd.next;
  } else {
    const std::size_t slot = find_slot(nd.key);
    table_head_[slot] = nd.next;
    if (nd.next < 0) erase_slot(slot);
  }
  free_nodes_.push_back(node);
}

void IncrementalGrid::clear_robot(RobotId robot) {
  for (const std::int32_t node : robot_nodes_[robot]) unlink(node);
  robot_nodes_[robot].clear();
}

void IncrementalGrid::set_outlier(RobotId robot, bool on) {
  const bool is = outlier_slot_[robot] >= 0;
  if (on == is) return;
  if (on) {
    outlier_slot_[robot] = static_cast<std::int32_t>(outliers_.size());
    outliers_.push_back(static_cast<std::uint32_t>(robot));
  } else {
    const std::int32_t at = outlier_slot_[robot];
    outliers_[at] = outliers_.back();
    outlier_slot_[outliers_.back()] = at;
    outliers_.pop_back();
    outlier_slot_[robot] = -1;
  }
}

void IncrementalGrid::reset(double cell_size, const std::vector<geom::Vec2>& initial) {
  inv_cell_ = 1.0 / ((std::isfinite(cell_size) && cell_size > 0.0) ? cell_size : 1.0);
  const std::size_t n = initial.size();
  nodes_.clear();
  free_nodes_.clear();
  robot_nodes_.assign(n, {});
  table_key_.clear();
  table_head_.clear();
  table_used_.clear();
  mask_ = 0;
  live_cells_ = 0;
  grow_table(next_pow2(std::max<std::size_t>(16, n * 2)));
  settle_queue_ = {};
  generation_.assign(n, 0);
  settle_pos_ = initial;
  outliers_.clear();
  outlier_slot_.assign(n, -1);
  marks_.reset(n);
  for (RobotId r = 0; r < n; ++r) {
    link(r, pack_cell_key(cell_of(initial[r].x), cell_of(initial[r].y)));
  }
}

void IncrementalGrid::update(RobotId robot, geom::Vec2 from, geom::Vec2 to, Time settle_time) {
  ++generation_[robot];
  settle_pos_[robot] = to;
  std::int64_t cx0 = cell_of(std::min(from.x, to.x));
  std::int64_t cx1 = cell_of(std::max(from.x, to.x));
  std::int64_t cy0 = cell_of(std::min(from.y, to.y));
  std::int64_t cy1 = cell_of(std::max(from.y, to.y));
  if (cx1 < cx0) std::swap(cx0, cx1);  // NaN coordinates only
  if (cy1 < cy0) std::swap(cy0, cy1);
  const std::uint64_t tag =
      (static_cast<std::uint64_t>(robot) << 32) | generation_[robot];
  if (cx1 - cx0 >= kMaxSegmentSpan || cy1 - cy0 >= kMaxSegmentSpan) {
    // A teleport-length segment: park the robot on the always-scanned
    // outlier list until it settles, rather than bucketing a huge box.
    clear_robot(robot);
    set_outlier(robot, true);
    settle_queue_.emplace(settle_time, tag);
    return;
  }
  set_outlier(robot, false);
  clear_robot(robot);
  for (std::int64_t cx = cx0; cx <= cx1; ++cx) {
    for (std::int64_t cy = cy0; cy <= cy1; ++cy) {
      link(robot, pack_cell_key(cx, cy));
    }
  }
  if (cx1 > cx0 || cy1 > cy0) settle_queue_.emplace(settle_time, tag);
}

void IncrementalGrid::collapse(RobotId robot) {
  set_outlier(robot, false);
  clear_robot(robot);
  const geom::Vec2 p = settle_pos_[robot];
  link(robot, pack_cell_key(cell_of(p.x), cell_of(p.y)));
}

void IncrementalGrid::advance_to(Time t) {
  while (!settle_queue_.empty() && settle_queue_.top().first <= t) {
    const std::uint64_t tag = settle_queue_.top().second;
    settle_queue_.pop();
    const RobotId robot = static_cast<RobotId>(tag >> 32);
    if (static_cast<std::uint32_t>(tag) == generation_[robot]) collapse(robot);
  }
}

bool IncrementalGrid::mark_near(geom::Vec2 q, double r) {
  nodes_walked_ = 0;
  const std::size_t n = robot_nodes_.size();
  if (n == 0) return true;
  // The window: every cell overlapping the bounding square of the closed
  // ball around `q` (a superset of the open ball too). A square covering
  // more cells than there are robots makes every robot a candidate
  // (cheaper, and trivially a superset; the caller's predicate decides).
  const double rq = std::max(r, 0.0) + kVisibilityEpsilon;
  const std::int64_t cx0 = cell_of(q.x - rq), cx1 = cell_of(q.x + rq);
  const std::int64_t cy0 = cell_of(q.y - rq), cy1 = cell_of(q.y + rq);
  const std::uint64_t span_x = static_cast<std::uint64_t>(cx1 - cx0) + 1;
  const std::uint64_t span_y = static_cast<std::uint64_t>(cy1 - cy0) + 1;
  if (span_x > 64 || span_y > 64 || span_x * span_y > n + 9) return false;
  window_heads_.clear();
  for (std::int64_t cx = cx0; cx <= cx1; ++cx) {
    for (std::int64_t cy = cy0; cy <= cy1; ++cy) {
      const std::size_t slot = find_slot(pack_cell_key(cx, cy));
      if (slot != static_cast<std::size_t>(-1)) window_heads_.push_back(table_head_[slot]);
    }
  }
  // Distinct window cells have distinct keys (a window spans at most 64
  // cells per axis), so the window holds every live cell when it finds
  // that many. Then every robot is a candidate: each one off the outlier
  // list has a node, in a live cell. The unwindowed enumeration is the
  // same set in the same ascending order, with no node walk and no bitmap.
  if (window_heads_.size() == live_cells_) return false;
  std::size_t walked = 0;
  for (const std::int32_t head : window_heads_) {
    for (std::int32_t i = head; i >= 0; i = nodes_[i].next, ++walked) {
      marks_.mark(static_cast<std::size_t>(nodes_[i].robot));
    }
  }
  nodes_walked_ = walked;
  // Multi-cell segments (and clamping/key aliasing) can mark a robot
  // several times; the bitmap emits it once, in the ascending order the
  // caller's RNG-drawing perception loop needs.
  for (const std::uint32_t r_out : outliers_) marks_.mark(r_out);
  return true;
}

}  // namespace cohesion::core
