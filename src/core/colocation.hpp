// Co-located robots in a perceived snapshot (paper footnote 4).
//
// Two perceived positions are co-located when they agree to within
// kColocationEps on each axis (geom::almost_equal). Without multiplicity
// detection the observer cannot tell co-located robots apart, so collapse()
// keeps one neighbour per location: walking the snapshot in order, a
// neighbour is dropped iff it is co-located with an earlier *kept* one. The
// survivors keep their snapshot order. With detection, flag() marks every
// neighbour that has a co-located partner.
//
// Both rules are stated pair by pair, and the all-pairs reference
// (tests/oracles/colocation_oracle.hpp) costs O(k²) per Look. Co-location
// is a fixed-radius question, so a hash of square cells w = 8·eps wide
// answers it with no sort: a finite position lives in cell
// (trunc(fl(x / w)), trunc(fl(y / w))), and a query for p compares the
// chains of the cells from cell(fl(p - eps)) to cell(fl(p + eps)) on each
// axis, at most two per axis. Those cells hold every partner. Cells are
// monotone in the coordinate because rounding is, and a partner beyond
// fl(p ± eps) lies within an ulp of eps of it, below 2^-39 in magnitude,
// where truncation puts everything into the one cell (-w, w). (A floor
// would split that cell at 0 and lose the pair (eps, -1e-30).) collapse()
// indexes only kept neighbours, flag() all of them.
//
// Staged snapshots are decided on proxies (core/snapshot.hpp): a proxy q
// is within a band r = kPerceptionSlack·(|q.x| + |q.y|) of its exact
// position, so a pair whose proxy differences clear eps by more than both
// bands on some axis is certainly apart, one within eps by more than both
// bands on each axis certainly co-located, and only a pair inside the band
// of the threshold materializes both positions for the exact predicate.
// Proxies are cell-indexed where they were found, and the query window
// widens by the bands, which stay below eps: staging keeps a proxy only
// while |q.x| + |q.y| <= 32 (kMaxProxyNorm) and materializes the rest.
// Exact pairs take the exact predicate, so results are bit-identical to
// the reference on exact positions.
//
// Most snapshots hold no co-located pair at all (a dense Look sees
// hundreds of neighbours 0.05 apart, a converging swarm's Look a few dozen
// scattered ones), so both calls first try to certify that, in one pass
// over coarse cells plus a compare of the bases that share a cell or lie
// near a shared edge, without the hash table. The bases are the
// snapshot's positions, read in place; their bounding box, count and
// largest band b come with it (Snapshot::extent, folded as staging goes).
// Only when the certificate declines does the hash path copy bases and
// bands (index_bases), as colocated() may then materialize positions.
//
// The certificate proves a point set pairwise more than a margin h apart
// on some axis. A Look runs it on its bases with h = fl(eps + 2b + 2^-79);
// the engine also runs it on the whole configuration of a Look instant
// (certify_apart(points, margin), below). It lays square cells of a
// power-of-two width W > 2h over the plane, aligned to multiples of W:
// ~1-4 cells per finite point over their bounding box on a square box,
// each an int32 head of a chain through an int32 link per point, all
// reused across calls. With t = fl(x / W) and c = floor(t) per axis, a
// point is near the upper edge of its cell unless fl((c + 1) - t) > h / W,
// and near the lower edge unless fl(t - c) > h / W. It holds iff every
// finite point differs by fl(|x_i - x_j|) > h or fl(|y_i - y_j|) > h from
// - every point chained in its cell before it;
// - when near an inner upper x edge (not in the top column), every point
//   of the cell to the right, of the cell above that one when also near
//   an inner upper y edge, and of the cell below it when also near the
//   lower y edge (not in the bottom row);
// - when near an inner upper y edge (not in the top row), every point of
//   the cell above.
// Then every pair differs by more than h on some axis:
// - A compared pair passed fl(|x_i - x_j|) > h (or the same in y).
//   Rounding is monotone and h is a double, so |x_i - x_j| > h exactly:
//   were it at most h, its rounding would be at most fl(h) = h.
// - A pair within h on both axes lies in one cell or in adjacent ones
//   (W > h), and then it was compared. Say x_i < (c + 1)·W <= x_j on
//   columns c and c + 1: (c + 1)·W - x_i <= h, so (c + 1) - t_i <= h / W,
//   and its rounding is at most h / W (monotone; h / W is a double): i is
//   near its upper edge and compares j's cell. Rows likewise, and a pair
//   on a diagonal has its lower-column point near both edges it crosses
//   (near the lower y edge when the other point is a row below).
// - t and h / W are exact: W is a power of two and every |x / W| is below
//   2^52 (checked), so t, c and c + 1 are exact and FMA contraction
//   cannot change a test. (t rounds only below 2^-1022, by under 2^-1074,
//   a shift under 2^-174 in x with W <= 2^900, also checked; every margin
//   below has at least 2^-81 to spare.) h is at most two roundings of
//   eps + 2b + 2^-79, within 2^-90 of it.
// - A basis is compared with at most kCertChainCap = 16 points of each
//   chain it walks, so the certificate costs at most 64 compares per
//   basis. A longer chain declines: a crowded cell, such as a gathered
//   cluster, goes to the hash, whose work stays linear in it.
// - Outer edges bound no pair, so the top column and row have no near
//   edges. One point (or none) certifies outright; a box flat on one
//   axis has one column (or row) there, and coinciding points share a
//   cell and fail the compare. Non-finite points are never co-located and
//   are skipped. A Look's basis beyond kWindowCoord declines its
//   certificate, as does the first close pair or over-long chain; then
//   the hash path runs as before.
// On a Look's bases it proves no pair co-located, on proxies or exactly:
// exact positions lie within a band of their bases, so they differ by
// more than eps + 2^-80 on the axis that h separates and the exact
// predicate fails. The proxy test fails too (the pair clears eps, both
// bands and the 2^-80 floor), so the hash path would have materialized
// nothing either.
//
// The Look instant. Every Look at one instant t (a synchronous round)
// sees the same global positions g, each through its own frame. When g is
// pairwise more than H = look_instant_margin(V, delta) apart on some axis,
// no Look at t in a frame without skew sees a co-located pair, so the
// engine certifies g once and skips the Looks' own certificates. For two
// neighbours i, j of an observer at s (V the largest radius), with
// D = |g_i - g_j| > H (the 2-norm is at least the inf-norm) and u = 2^-53:
// - Visible offsets d = fl(g - s) have |d| <= R = V·(1 + 2^-40) + 2^-30
//   (hypot within an ulp of V + 1e-12), and |d - (g - s)| <= u·|g - s|,
//   so |d_i - d_j| >= D - 2^-51·R.
// - Reflection is exact. Rotation by c = fl(cos), s = fl(sin) is rho
//   times a rotation, |rho - 1| <= 2^-51, and its products and sums add
//   at most 4.1u·|d| (FMA contraction only drops roundings): the rotated
//   offsets v keep |v_i - v_j| >= D - 2^-48·R and |v| <= R·(1 + 2^-49).
// - Proxies q = fl(v·sigma) with |sigma - 1| <= delta + 2u, so
//   q_i - q_j = sigma_i·(v_i - v_j) + (sigma_i - sigma_j)·v_j + roundings:
//   |q_i - q_j| >= (1 - delta)·D - 2·delta·R - 2^-46·R.
// - Perceived points P lie within kPerceptionSlack·|q|_1 of q per axis in
//   a frame without skew, at any magnitude (below 2^-1000 absolute in the
//   subnormal range): |P - q| <= 2^-43·R·(1 + 2^-47) each.
// - So |P_i - P_j| >= (1 - delta)·D - 2·delta·R - 2^-41·R
//   > 1.5·eps + 2^-41·R + 2^-79 >= sqrt(2)·(eps + 2^-80), and on some
//   axis |P_i.x - P_j.x| > eps + 2^-80: fl of it exceeds eps and the
//   exact predicate fails, as it does in the reference engine.
// H = (1.5·eps + 2·delta·R + 2^-40·R + 2^-79) / (1 - delta), times
// (1 + 2^-40) against its own roundings. It is ~2.4e-12 at V = 1 without
// distance noise and grows with delta·V; the certificate then declines on
// closer configurations, and every Look certifies its own snapshot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/snapshot.hpp"

namespace cohesion::core {

/// Resolution below which two perceived positions count as one robot.
inline constexpr double kColocationEps = 1e-12;

/// H above: a configuration pairwise more than H apart on some axis shows
/// no co-located pair to any Look without skew whose visibility radius is
/// at most `max_radius`, with distance noise `distance_delta` (in [0, 1)).
/// Infinite or NaN when no finite margin covers the inputs; certify_apart
/// declines at such a margin.
[[nodiscard]] double look_instant_margin(double max_radius, double distance_delta);

class ColocationIndex {
 public:
  /// Drop each neighbour co-located with an earlier kept one, in place.
  void collapse(Snapshot& snapshot);
  /// Set `multiplicity` on each neighbour that shares its location.
  void flag(Snapshot& snapshot);
  /// Chain entries the last call compared with the co-location predicate:
  /// its work, at most the occupancy of a query's cells per query.
  [[nodiscard]] std::size_t probes() const { return probes_; }
  /// Whether the last call was decided by the coarse-cell certificate that
  /// no pair is co-located, without touching the hash table (or was
  /// assume_apart()).
  [[nodiscard]] bool certified() const { return certified_; }
  /// Whether every two finite `points` differ by more than `margin` (a
  /// positive double) on some axis: the coarse-cell certificate on them,
  /// false when it declines. Leaves probes() and certified() as they were.
  [[nodiscard]] bool certify_apart(const std::vector<geom::Vec2>& points, double margin);
  /// Stand in for collapse() or flag() on a snapshot already known to hold
  /// no co-located pair (the engine's Look instant): both would keep it as
  /// it is. Counts as certified, with no probes.
  void assume_apart() {
    probes_ = 0;
    certified_ = true;
  }

 private:
  struct Slot {
    double cx = 0.0, cy = 0.0;  ///< the cell
    std::int32_t head = -1;     ///< first neighbour of its chain through next_
    std::uint32_t stamp = 0;    ///< live iff equal to generation_
  };

  /// Empty the table, sized for `count` cells.
  void clear(std::size_t count);
  /// Slot holding cell (cx, cy) this generation, or the free slot for it.
  [[nodiscard]] std::size_t find_slot(double cx, double cy) const;
  /// The slot of cell (cx, cy), made live with an empty chain if it was not.
  std::size_t claim(double cx, double cy);
  /// The hash path's setup: an empty table for the snapshot, and each
  /// neighbour's basis and band as they stand before any materializes.
  void index_bases(const Snapshot& snapshot);
  /// Whether the snapshot's positions are certainly pairwise apart: the
  /// coarse-cell certificate above, on its staged extent.
  bool certify_apart(const Snapshot& snapshot);
  /// The certificate on `m` points, point(i) the i-th, whose finite ones
  /// span `box`: whether every two differ by more than `h` on some axis.
  template <class PointAt>
  bool certify_apart(std::size_t m, const SnapshotExtent& box, double h, PointAt point);
  /// The co-location predicate on neighbours i and j: on proxies where
  /// their bands decide it, else on both exact positions.
  bool colocated(const Snapshot& snapshot, std::size_t i, std::size_t j) const;
  /// Whether an indexed neighbour other than `self` is co-located with
  /// neighbour i (finite). Sets `own` to the claimed slot of i's own cell.
  bool has_partner(const Snapshot& snapshot, std::uint32_t i, std::uint32_t self,
                   std::size_t& own);
  /// Chain neighbour `i` into slot `s`.
  void insert(std::uint32_t i, std::size_t s) {
    next_[i] = slots_[s].head;
    slots_[s].head = static_cast<std::int32_t>(i);
  }

  // Open-addressed cell table; clear() invalidates it by bumping
  // generation_ instead of touching the slots.
  std::vector<Slot> slots_;
  std::vector<std::int32_t> next_;     // per snapshot index: links of slots_' and heads_' chains
  std::vector<geom::Vec2> basis_;      // hash path, per snapshot index: where it is cell-indexed
  std::vector<double> band_;           // hash path, per snapshot index: its band there
  std::vector<std::uint8_t> keep_;     // collapse()'s survivors
  std::vector<std::int32_t> heads_;    // certify_apart()'s coarse cells: chain heads
  std::vector<std::int32_t> crowded_;  // certify_apart()'s points that found their cell occupied
  std::vector<std::int32_t> edged_;    // certify_apart()'s points near an inner upper edge
  double max_band_ = 0.0;              // hash path: largest band in the snapshot
  std::uint32_t generation_ = 0;
  std::size_t mask_ = 0;
  int shift_ = 64;  // 64 - log2(slots_.size()), set by clear()
  std::size_t probes_ = 0;
  bool certified_ = false;
};

}  // namespace cohesion::core
