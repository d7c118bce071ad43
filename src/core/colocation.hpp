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
// widens by the bands, which stay below eps: proxies with |q.x| + |q.y| >
// 32 are materialized first. Exact pairs take the exact predicate, so
// results are bit-identical to the reference on exact positions.
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
  /// Record each neighbour's band and cell basis, materializing proxies
  /// whose band would reach eps.
  void prepare(Snapshot& snapshot);
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
  std::vector<std::int32_t> next_;  // per snapshot index
  std::vector<geom::Vec2> basis_;   // per snapshot index: where it is cell-indexed
  std::vector<double> band_;        // per snapshot index: 0 once exact
  std::vector<std::uint8_t> keep_;  // collapse()'s survivors
  double max_band_ = 0.0;           // largest band in this snapshot
  std::uint32_t generation_ = 0;
  std::size_t mask_ = 0;
  int shift_ = 64;  // 64 - log2(slots_.size()), set by clear()
  std::size_t probes_ = 0;
};

}  // namespace cohesion::core
