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
// (tests/oracles/colocation_oracle.hpp) costs O(k²) per Look, which
// dominated dense Looks (~700 neighbours each). One sort of the snapshot by
// (x, y, index) groups equal x values into runs, each ascending in y, so a
// co-location query is a binary search in its own run plus the neighbouring
// runs whose x is within eps, with bit-identical results. Only points
// packed into an x-strip narrower than eps make the run walk long.
// collapse() then falls back to scanning its kept list, so it never costs
// more than twice the pairwise rule; flag() walks the strip, as a sweep over
// the sorted snapshot would. collapse() runs the pairwise rule directly
// below 48 neighbours, where building the index costs more than it saves.
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
  void collapse(std::vector<ObservedRobot>& neighbours);
  /// Set `multiplicity` on each neighbour that shares its location.
  void flag(std::vector<ObservedRobot>& neighbours);
  /// Index entries, runs and kept neighbours the last call examined: its
  /// work, bounded per query as described above.
  [[nodiscard]] std::size_t probes() const { return probes_; }

 private:
  struct Key {
    double x, y;
    std::uint32_t index;  // position in the snapshot
  };
  static constexpr std::uint32_t kUnindexed = UINT32_MAX;
  enum class Probe { kAbsent, kFound, kOverBudget };

  /// Sort the finite positions and delimit their equal-x runs. A
  /// non-finite coordinate is never almost_equal to anything, so such
  /// neighbours stay out of the index (rank kUnindexed).
  void build(const std::vector<ObservedRobot>& neighbours);
  /// Whether some other indexed key co-located with keys_[rank] passes
  /// `accept(snapshot index)`, giving up after `budget` steps.
  template <class Accept>
  Probe probe(std::uint32_t rank, Accept accept, std::size_t budget);
  /// The pairwise rule: whether `p` is co-located with one of the first
  /// `kept` neighbours.
  bool colocated_with_kept(const std::vector<ObservedRobot>& neighbours, std::size_t kept,
                           geom::Vec2 p);

  std::vector<Key> keys_;                 // sorted by (x, y, index)
  std::vector<std::uint32_t> run_begin_;  // per rank: first rank with equal x
  std::vector<std::uint32_t> run_end_;    // per rank: one past the last
  std::vector<std::uint32_t> rank_;       // per snapshot index
  std::vector<bool> kept_;                // per snapshot index (collapse)
  std::size_t probes_ = 0;
};

}  // namespace cohesion::core
