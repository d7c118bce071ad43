#include "core/colocation.hpp"

#include <algorithm>
#include <cmath>

namespace cohesion::core {

namespace {

/// Below this size collapse() runs the pairwise rule directly, which beats
/// building the index (the two cross between 32 and 64 scattered points).
constexpr std::size_t kIndexMinSize = 48;

}  // namespace

void ColocationIndex::build(const std::vector<ObservedRobot>& neighbours) {
  keys_.clear();
  rank_.assign(neighbours.size(), kUnindexed);
  for (std::uint32_t i = 0; i < neighbours.size(); ++i) {
    const geom::Vec2 p = neighbours[i].position;
    if (std::isfinite(p.x) && std::isfinite(p.y)) keys_.push_back({p.x, p.y, i});
  }
  // -0.0 == +0.0, so signed zeros share an equal-x run.
  std::sort(keys_.begin(), keys_.end(), [](const Key& a, const Key& b) {
    if (a.x != b.x) return a.x < b.x;
    return a.y != b.y ? a.y < b.y : a.index < b.index;
  });
  const auto m = static_cast<std::uint32_t>(keys_.size());
  run_begin_.resize(m);
  run_end_.resize(m);
  for (std::uint32_t r = 0; r < m; ++r) {
    run_begin_[r] = r > 0 && keys_[r - 1].x == keys_[r].x ? run_begin_[r - 1] : r;
    rank_[keys_[r].index] = r;
  }
  for (std::uint32_t r = m; r-- > 0;) {
    run_end_[r] = r + 1 < m && keys_[r + 1].x == keys_[r].x ? run_end_[r + 1] : r + 1;
  }
}

template <class Accept>
ColocationIndex::Probe ColocationIndex::probe(std::uint32_t rank, Accept accept,
                                              std::size_t budget) {
  const Key q = keys_[rank];
  // One step per run visited and per key examined; false once over budget.
  const auto step = [&] {
    ++probes_;
    return budget-- > 0;
  };
  // Within a run y ascends, and a rounded difference is monotone in its
  // operands, so the keys with |y - q.y| <= eps form one contiguous window.
  // The same monotonicity in x lets the run walks stop at the first run
  // beyond eps.
  const auto scan_run = [&](std::uint32_t begin, std::uint32_t end) {
    const auto first = std::partition_point(
        keys_.begin() + begin, keys_.begin() + end,
        [&](const Key& k) { return q.y - k.y > kColocationEps; });
    for (auto it = first; it != keys_.begin() + end && it->y - q.y <= kColocationEps; ++it) {
      if (!step()) return Probe::kOverBudget;
      if (static_cast<std::uint32_t>(it - keys_.begin()) != rank && accept(it->index)) {
        return Probe::kFound;
      }
    }
    return Probe::kAbsent;
  };
  // The own run's window holds another key iff it holds a y-neighbour.
  const std::uint32_t begin = run_begin_[rank], end = run_end_[rank];
  const bool below = rank > begin && q.y - keys_[rank - 1].y <= kColocationEps;
  const bool above = rank + 1 < end && keys_[rank + 1].y - q.y <= kColocationEps;
  if (below || above) {
    if (const Probe p = scan_run(begin, end); p != Probe::kAbsent) return p;
  }
  for (std::uint32_t lo = run_begin_[rank]; lo > 0 && q.x - keys_[lo - 1].x <= kColocationEps;
       lo = run_begin_[lo - 1]) {
    if (!step()) return Probe::kOverBudget;
    if (const Probe p = scan_run(run_begin_[lo - 1], lo); p != Probe::kAbsent) return p;
  }
  for (std::uint32_t hi = run_end_[rank];
       hi < keys_.size() && keys_[hi].x - q.x <= kColocationEps; hi = run_end_[hi]) {
    if (!step()) return Probe::kOverBudget;
    if (const Probe p = scan_run(hi, run_end_[hi]); p != Probe::kAbsent) return p;
  }
  return Probe::kAbsent;
}

bool ColocationIndex::colocated_with_kept(const std::vector<ObservedRobot>& neighbours,
                                          std::size_t kept, geom::Vec2 p) {
  for (std::size_t j = 0; j < kept; ++j) {
    ++probes_;
    if (geom::almost_equal(neighbours[j].position, p, kColocationEps)) return true;
  }
  return false;
}

void ColocationIndex::collapse(std::vector<ObservedRobot>& neighbours) {
  probes_ = 0;
  std::size_t kept = 0;
  if (neighbours.size() < kIndexMinSize) {
    for (const ObservedRobot& o : neighbours) {
      if (!colocated_with_kept(neighbours, kept, o.position)) neighbours[kept++] = o;
    }
    neighbours.resize(kept);
    return;
  }
  build(neighbours);
  kept_.assign(neighbours.size(), false);
  for (std::uint32_t i = 0; i < neighbours.size(); ++i) {
    const std::uint32_t r = rank_[i];
    if (r != kUnindexed) {
      // A walk longer than the kept list (a cluster packed into an x-strip
      // narrower than eps) gives way to scanning the kept list itself, so a
      // query never costs more than twice the pairwise rule. Kept
      // neighbours are compacted in place ahead of `i`.
      const Probe p = probe(r, [&](std::uint32_t j) { return kept_[j]; }, kept);
      if (p == Probe::kFound ||
          (p == Probe::kOverBudget &&
           colocated_with_kept(neighbours, kept, neighbours[i].position))) {
        continue;
      }
    }
    kept_[i] = true;
    neighbours[kept++] = neighbours[i];
  }
  neighbours.resize(kept);
}

void ColocationIndex::flag(std::vector<ObservedRobot>& neighbours) {
  probes_ = 0;
  if (neighbours.size() < 2) return;
  build(neighbours);
  for (std::uint32_t r = 0; r < keys_.size(); ++r) {
    if (probe(r, [](std::uint32_t) { return true; }, SIZE_MAX) == Probe::kFound) {
      neighbours[keys_[r].index].multiplicity = true;
    }
  }
}

}  // namespace cohesion::core
