#include "core/colocation.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace cohesion::core {

namespace {

constexpr double kCellsPerUnit = 1.0 / (8.0 * kColocationEps);
constexpr std::uint32_t kNoSelf = UINT32_MAX;

bool finite(geom::Vec2 p) { return std::isfinite(p.x) && std::isfinite(p.y); }

/// trunc(fl(v / w)), exactly and without libm: below 2^52 through int64,
/// which also folds -0 to +0; from 2^52 on (and at ±inf) every double is
/// its own integer.
double cell_of(double v) {
  const double c = v * kCellsPerUnit;
  return std::abs(c) < 0x1p52 ? static_cast<double>(static_cast<std::int64_t>(c)) : c;
}

/// The cell after `c`: c + 1 is exact below 2^53, the next double above.
double next_cell(double c) {
  return std::abs(c) < 0x1p53 ? c + 1.0 : std::nextafter(c, std::numeric_limits<double>::infinity());
}

}  // namespace

void ColocationIndex::clear(std::size_t count) {
  // Load factor <= 1/2 even with one cell per neighbour.
  const std::size_t want = std::bit_ceil(std::max<std::size_t>(16, count * 2));
  if (slots_.size() < want || ++generation_ == 0) {
    slots_.assign(std::max(want, slots_.size()), Slot{});
    mask_ = slots_.size() - 1;
    shift_ = 64 - std::countr_zero(slots_.size());
    generation_ = 1;
  }
  next_.resize(count);
}

std::size_t ColocationIndex::find_slot(double cx, double cy) const {
  // Multiplicative hash, top bits: neighbouring cells must not cluster.
  const std::uint64_t h =
      (std::bit_cast<std::uint64_t>(cx) * 0x9e3779b97f4a7c15ULL ^ std::bit_cast<std::uint64_t>(cy)) *
      0xbf58476d1ce4e5b9ULL;
  std::size_t s = static_cast<std::size_t>(h >> shift_);
  while (slots_[s].stamp == generation_ && (slots_[s].cx != cx || slots_[s].cy != cy)) {
    s = (s + 1) & mask_;
  }
  return s;
}

std::size_t ColocationIndex::claim(double cx, double cy) {
  const std::size_t s = find_slot(cx, cy);
  if (slots_[s].stamp != generation_) slots_[s] = Slot{cx, cy, -1, generation_};
  return s;
}

bool ColocationIndex::has_partner(const std::vector<ObservedRobot>& neighbours, geom::Vec2 p,
                                  std::uint32_t self, std::size_t& own) {
  const auto chain_has_partner = [&](std::size_t s) {
    if (slots_[s].stamp != generation_) return false;
    for (std::int32_t j = slots_[s].head; j >= 0; j = next_[j]) {
      if (static_cast<std::uint32_t>(j) == self) continue;
      ++probes_;
      if (geom::almost_equal(neighbours[j].position, p, kColocationEps)) return true;
    }
    return false;
  };
  const double x0 = cell_of(p.x - kColocationEps), x1 = cell_of(p.x + kColocationEps);
  const double y0 = cell_of(p.y - kColocationEps), y1 = cell_of(p.y + kColocationEps);
  // p's own cell lies between the ends of its window: cells are monotone.
  const double ox = x0 == x1 ? x0 : cell_of(p.x), oy = y0 == y1 ? y0 : cell_of(p.y);
  own = claim(ox, oy);
  if (chain_has_partner(own)) return true;
  if (x0 == x1 && y0 == y1) return false;
  // Stepping stops on reaching the last cell, so ±inf cells visit once.
  for (double cx = x0;; cx = next_cell(cx)) {
    for (double cy = y0;; cy = next_cell(cy)) {
      if ((cx != ox || cy != oy) && chain_has_partner(find_slot(cx, cy))) return true;
      if (cy >= y1) break;
    }
    if (cx >= x1) break;
  }
  return false;
}

void ColocationIndex::collapse(std::vector<ObservedRobot>& neighbours) {
  probes_ = 0;
  clear(neighbours.size());
  // Kept neighbours are compacted in place ahead of `i` and indexed at
  // their new position. A non-finite coordinate is never almost_equal to
  // anything, so such neighbours are kept and stay out of the index. A
  // dropped neighbour may leave its own cell claimed with an empty chain:
  // at most one cell per neighbour, as the table is sized for.
  std::uint32_t kept = 0;
  for (std::size_t i = 0; i < neighbours.size(); ++i) {
    const geom::Vec2 p = neighbours[i].position;
    if (finite(p)) {
      std::size_t own = 0;
      if (has_partner(neighbours, p, kNoSelf, own)) continue;
      insert(kept, own);
    }
    neighbours[kept++] = neighbours[i];
  }
  neighbours.resize(kept);
}

void ColocationIndex::flag(std::vector<ObservedRobot>& neighbours) {
  probes_ = 0;
  if (neighbours.size() < 2) return;
  clear(neighbours.size());
  for (std::uint32_t i = 0; i < neighbours.size(); ++i) {
    const geom::Vec2 p = neighbours[i].position;
    if (finite(p)) insert(i, claim(cell_of(p.x), cell_of(p.y)));
  }
  std::size_t own = 0;
  for (std::uint32_t i = 0; i < neighbours.size(); ++i) {
    const geom::Vec2 p = neighbours[i].position;
    if (finite(p) && has_partner(neighbours, p, i, own)) neighbours[i].multiplicity = true;
  }
}

}  // namespace cohesion::core
