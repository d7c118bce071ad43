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
// over coarse cells plus a compare of the bases that share one, without
// the hash table. The bases are the snapshot's positions, read in place;
// their bounding box, count and largest band b come with it
// (Snapshot::extent, folded as staging goes). Only when the certificate
// declines does the hash path copy bases and bands (index_bases), as
// colocated() may then materialize positions. With
// h = fl(eps + 2b + 2^-79), the certificate lays square cells of a
// power-of-two width W > 2h over the plane, aligned to multiples of W:
// ~1-4 cells per finite basis over their bounding box on a square box,
// each an int32 head of a chain through an int32 link per basis, all
// reused across calls. It holds iff every finite basis lies farther than
// h below the upper edge of its cell on each axis where that edge is inner
// (not in the top column or row), and differs by fl(|x_i - x_j|) > h or
// fl(|y_i - y_j|) > h from every basis chained in its cell before it. Then
// no pair is co-located, on proxies or exactly:
// - Two bases in different cells differ in column (or row), c_i < c_j.
//   With t = fl(x / W) and c = floor(t), the lower one passed
//   fl((c_i + 1) - t_i) > h / W. Rounding is monotone and h / W is a
//   double, so (c_i + 1)·W - x_i > h, while x_j >= c_j·W >= (c_i + 1)·W:
//   x_j - x_i > h on that axis.
// - Two bases in one cell passed fl(|x_i - x_j|) > h (or the same in y).
//   Rounding is monotone and h is a double, so |x_i - x_j| > h exactly:
//   were it at most h, its rounding would be at most fl(h) = h.
// - t and h / W are exact: W is a power of two, and W > 2h with
//   |x| <= 64 keeps |t| below 2^46, inside int64. (t rounds only for |x|
//   below 2^-1000, by under 2^-1070.) So no product in the test rounds
//   and FMA contraction cannot change it; h is at most two roundings of
//   eps + 2b + 2^-79, within 2^-90 of it.
// - Either way, exact positions lie within a band of their bases, so they
//   differ by more than eps + 2^-80 on that axis and the exact predicate
//   fails. The proxy test fails too (the pair clears eps, both bands and
//   the 2^-80 floor), so the hash path would have materialized nothing
//   either.
// - A basis is compared with at most kCertChainCap = 16 bases of its
//   cell, so the certificate costs at most 16 compares per basis. A
//   longer chain declines: a crowded cell, such as a gathered cluster,
//   goes to the hash, whose work stays linear in it.
// - Outer edges bound no pair, so the top column and row skip the
//   margin. One basis (or none) certifies outright; a box flat on one
//   axis has one column (or row) there, and coinciding bases share a
//   cell and fail the compare. Non-finite bases are never co-located and
//   are skipped. A basis beyond kWindowCoord declines the certificate, as
//   does the first close pair, near edge or over-long chain; then the hash
//   path runs as before.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/snapshot.hpp"

namespace cohesion::core {

/// Resolution below which two perceived positions count as one robot.
inline constexpr double kColocationEps = 1e-12;

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
  /// no pair is co-located, without touching the hash table.
  [[nodiscard]] bool certified() const { return certified_; }

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
  std::vector<std::int32_t> crowded_;  // certify_apart()'s bases that found their cell occupied
  double max_band_ = 0.0;              // hash path: largest band in the snapshot
  std::uint32_t generation_ = 0;
  std::size_t mask_ = 0;
  int shift_ = 64;  // 64 - log2(slots_.size()), set by clear()
  std::size_t probes_ = 0;
  bool certified_ = false;
};

}  // namespace cohesion::core
