#include "core/colocation.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace cohesion::core {

namespace {

constexpr double kCellsPerUnit = 1.0 / (8.0 * kColocationEps);
constexpr std::uint32_t kNoSelf = UINT32_MAX;
// Proxies with |q.x| + |q.y| above this are materialized before indexing:
// their band kPerceptionSlack·32 = 2^-40 stays below eps.
constexpr double kMaxBandedNorm = 32.0;
// Rounding of a difference near eps: far below 2^-80.
constexpr double kDiffFloor = 0x1p-80;
// Window edges fl(b ± h) with |b| <= kWindowCoord round by at most 2^-47;
// kEdgeSlop covers that, kDiffFloor and the roundings of the differences.
constexpr double kWindowCoord = 64.0;
constexpr double kEdgeSlop = 0x1p-46;

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

void ColocationIndex::prepare(Snapshot& snapshot) {
  const std::size_t m = snapshot.size();
  basis_.resize(m);
  band_.resize(m);
  max_band_ = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    double band = 0.0;
    if (!snapshot.exact(i)) {
      const geom::Vec2 q = snapshot.proxy(i);
      const double l1 = std::abs(q.x) + std::abs(q.y);
      if (l1 > kMaxBandedNorm) {
        (void)snapshot.exact_position(i);
      } else {
        band = kPerceptionSlack * l1;
      }
    }
    basis_[i] = snapshot.proxy(i);
    band_[i] = band;
    max_band_ = std::max(max_band_, band);
  }
}

bool ColocationIndex::colocated(const Snapshot& snapshot, std::size_t i, std::size_t j) const {
  const geom::Vec2 a = snapshot.proxy(i), b = snapshot.proxy(j);
  const double ri = snapshot.exact(i) ? 0.0 : band_[i];
  const double rj = snapshot.exact(j) ? 0.0 : band_[j];
  if (ri == 0.0 && rj == 0.0) return geom::almost_equal(a, b, kColocationEps);
  // |exact - proxy| <= band per axis, so the exact differences lie within
  // ri + rj of the proxies' (and kDiffFloor covers the roundings).
  const double tol = ri + rj + kDiffFloor;
  const double dx = std::abs(a.x - b.x), dy = std::abs(a.y - b.y);
  if (dx > kColocationEps + tol || dy > kColocationEps + tol) return false;
  if (dx <= kColocationEps - tol && dy <= kColocationEps - tol) return true;
  return geom::almost_equal(snapshot.exact_position(i), snapshot.exact_position(j),
                            kColocationEps);
}

bool ColocationIndex::has_partner(const Snapshot& snapshot, std::uint32_t i, std::uint32_t self,
                                  std::size_t& own) {
  const auto chain_has_partner = [&](std::size_t s) {
    if (slots_[s].stamp != generation_) return false;
    for (std::int32_t j = slots_[s].head; j >= 0; j = next_[j]) {
      if (static_cast<std::uint32_t>(j) == self) continue;
      ++probes_;
      if (colocated(snapshot, i, static_cast<std::size_t>(j))) return true;
    }
    return false;
  };
  // Exact pairs need the ±eps window. colocated() may consult a pair
  // whose current positions are eps plus their current bands apart; each
  // is indexed at its basis, and a neighbour's distance from its basis
  // plus its current band never exceeds its band at prepare(). So bases
  // of such a pair lie within eps plus both bands. Proxies have
  // |q.x| + |q.y| <= 32, so a basis beyond kWindowCoord can have exact
  // partners only.
  const geom::Vec2 p = basis_[i];
  const bool widen = (band_[i] > 0.0 || max_band_ > 0.0) && std::abs(p.x) <= kWindowCoord &&
                     std::abs(p.y) <= kWindowCoord;
  const double h = widen ? kColocationEps + band_[i] + max_band_ + kEdgeSlop : kColocationEps;
  const double x0 = cell_of(p.x - h), x1 = cell_of(p.x + h);
  const double y0 = cell_of(p.y - h), y1 = cell_of(p.y + h);
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

void ColocationIndex::collapse(Snapshot& snapshot) {
  probes_ = 0;
  const std::size_t m = snapshot.size();
  clear(m);
  prepare(snapshot);
  // Kept neighbours are indexed, dropped ones are not. A non-finite
  // coordinate is never almost_equal to anything, so such neighbours are
  // kept and stay out of the index. A dropped neighbour may leave its own
  // cell claimed with an empty chain: at most one cell per neighbour, as
  // the table is sized for.
  keep_.assign(m, 1);
  for (std::uint32_t i = 0; i < m; ++i) {
    if (!finite(basis_[i])) continue;
    std::size_t own = 0;
    if (has_partner(snapshot, i, kNoSelf, own)) {
      keep_[i] = 0;
    } else {
      insert(i, own);
    }
  }
  snapshot.retain(keep_);
}

void ColocationIndex::flag(Snapshot& snapshot) {
  probes_ = 0;
  const std::size_t m = snapshot.size();
  if (m < 2) return;
  clear(m);
  prepare(snapshot);
  for (std::uint32_t i = 0; i < m; ++i) {
    const geom::Vec2 p = basis_[i];
    if (finite(p)) insert(i, claim(cell_of(p.x), cell_of(p.y)));
  }
  std::size_t own = 0;
  for (std::uint32_t i = 0; i < m; ++i) {
    if (finite(basis_[i]) && has_partner(snapshot, i, i, own)) snapshot.set_multiplicity(i);
  }
}

}  // namespace cohesion::core
