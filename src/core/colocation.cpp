#include "core/colocation.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace cohesion::core {

namespace {

constexpr double kCellsPerUnit = 1.0 / (8.0 * kColocationEps);
constexpr std::uint32_t kNoSelf = UINT32_MAX;
// Rounding of a difference near eps: far below 2^-80.
constexpr double kDiffFloor = 0x1p-80;
// Window edges fl(b ± h) with |b| <= kWindowCoord round by at most 2^-47;
// kEdgeSlop covers that, kDiffFloor and the roundings of the differences.
constexpr double kWindowCoord = 64.0;
constexpr double kEdgeSlop = 0x1p-46;
// The certificate's h = eps + 2·max band + kCertFloor: twice kDiffFloor,
// so a certified pair also clears colocated()'s proxy threshold.
constexpr double kCertFloor = 0x1p-79;
// Coarse cells per finite basis the certificate asks for at least, and the
// most bases of one cell it compares a basis with (colocation.hpp).
constexpr double kCertCellsPerBasis = 1.0;
constexpr std::size_t kCertChainCap = 16;

bool finite(geom::Vec2 p) { return std::isfinite(p.x) && std::isfinite(p.y); }

/// floor(t) for |t| < 2^62, exactly and without libm or a branch.
std::int64_t floor_of(double t) {
  const auto c = static_cast<std::int64_t>(t);
  return c - (static_cast<double>(c) > t ? 1 : 0);
}

/// The largest power of two not above v (v positive and normal): v with
/// its mantissa cleared.
double pow2_floor(double v) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(v) & 0xfff0000000000000ULL);
}

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

void ColocationIndex::index_bases(const Snapshot& snapshot) {
  const std::size_t m = snapshot.size();
  clear(m);
  basis_.resize(m);
  band_.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    basis_[i] = snapshot.proxy(i);
    band_[i] = snapshot.band(i);
  }
  max_band_ = snapshot.extent().max_band;
}

double look_instant_margin(double max_radius, double distance_delta) {
  const double reach = max_radius * (1.0 + 0x1p-40) + 0x1p-30;
  const double h =
      (1.5 * kColocationEps + (2.0 * distance_delta + 0x1p-40) * reach + kCertFloor) /
      (1.0 - distance_delta);
  return h * (1.0 + 0x1p-40);
}

template <class PointAt>
bool ColocationIndex::certify_apart(std::size_t m, const SnapshotExtent& box, double h,
                                    PointAt point) {
  if (box.finite < 2) return true;
  // Any power of two above 2h is a correct width. This one, the largest
  // not above the side of kCertCellsPerBasis cells per point, gives 1 to
  // 4 times that many cells on a square box; a thin box gets at most
  // twice as many columns (rows) plus two.
  const double cells = kCertCellsPerBasis * static_cast<double>(box.finite);
  const double wx = box.x1 - box.x0, wy = box.y1 - box.y0;
  const double w =
      pow2_floor(std::max({std::sqrt(wx * wy / cells), std::max(wx, wy) / cells, 4.0 * h}));
  const double inv = 1.0 / w;  // exact: w is a power of two
  const double largest = std::max({-box.x0, box.x1, -box.y0, box.y1});  // of any |coordinate|
  if (!(h > 0.0 && w <= 0x1p900 && largest * inv < 0x1p52)) return false;
  const double hs = h * inv;
  const std::int64_t cx0 = floor_of(box.x0 * inv), cy0 = floor_of(box.y0 * inv);
  const auto nx = static_cast<std::size_t>(floor_of(box.x1 * inv) - cx0 + 1);
  const auto ny = static_cast<std::size_t>(floor_of(box.y1 * inv) - cy0 + 1);
  heads_.assign(nx * ny, -1);
  next_.resize(m);
  crowded_.resize(m);
  edged_.resize(m);
  std::size_t crowded = 0, edged = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const geom::Vec2 p = point(i);
    if (!finite(p)) continue;
    const double tx = p.x * inv, ty = p.y * inv;
    const std::int64_t cx = floor_of(tx), cy = floor_of(ty);
    const auto col = static_cast<std::size_t>(cx - cx0);
    const auto row = static_cast<std::size_t>(cy - cy0);
    // Chain the point, and list it (without a branch) as crowded if its
    // cell was occupied and as edged if it lies within h of an inner upper
    // edge: on a dense rotated Look about a point in ten is crowded and
    // almost none is edged.
    std::int32_t& head = heads_[row * nx + col];
    next_[i] = head;
    crowded_[crowded] = static_cast<std::int32_t>(i);
    crowded += head >= 0 ? 1 : 0;
    head = static_cast<std::int32_t>(i);
    edged_[edged] = static_cast<std::int32_t>(i);
    edged += static_cast<std::size_t>((col + 1 < nx && !(static_cast<double>(cx + 1) - tx > hs)) |
                                      (row + 1 < ny && !(static_cast<double>(cy + 1) - ty > hs)));
  }
  // Whether p is more than h from every point of `chain` on some axis,
  // walking at most kCertChainCap of them.
  const auto apart_from = [&](geom::Vec2 p, std::int32_t chain) {
    std::size_t walked = 0;
    for (std::int32_t j = chain; j >= 0; j = next_[j]) {
      const geom::Vec2 q = point(static_cast<std::size_t>(j));
      if (++walked > kCertChainCap || !(std::abs(p.x - q.x) > h || std::abs(p.y - q.y) > h)) {
        return false;
      }
    }
    return true;
  };
  // A pair inside a cell is more than h apart on some axis.
  for (std::size_t c = 0; c < crowded; ++c) {
    const auto i = static_cast<std::size_t>(crowded_[c]);
    if (!apart_from(point(i), next_[i])) return false;
  }
  // So is a pair across an edge that its lower point lies within h of.
  for (std::size_t e = 0; e < edged; ++e) {
    const geom::Vec2 p = point(static_cast<std::size_t>(edged_[e]));
    const double tx = p.x * inv, ty = p.y * inv;
    const std::int64_t cx = floor_of(tx), cy = floor_of(ty);
    const auto col = static_cast<std::size_t>(cx - cx0);
    const auto row = static_cast<std::size_t>(cy - cy0);
    const std::size_t cell = row * nx + col;
    const bool up = row + 1 < ny && !(static_cast<double>(cy + 1) - ty > hs);
    if (up && !apart_from(p, heads_[cell + nx])) return false;
    if (col + 1 < nx && !(static_cast<double>(cx + 1) - tx > hs)) {
      const bool down = row > 0 && !(ty - static_cast<double>(cy) > hs);
      if (!apart_from(p, heads_[cell + 1]) || (up && !apart_from(p, heads_[cell + nx + 1])) ||
          (down && !apart_from(p, heads_[cell - nx + 1]))) {
        return false;
      }
    }
  }
  return true;
}

bool ColocationIndex::certify_apart(const Snapshot& snapshot) {
  const SnapshotExtent& box = snapshot.extent();
  if (box.x0 < -kWindowCoord || box.x1 > kWindowCoord || box.y0 < -kWindowCoord ||
      box.y1 > kWindowCoord) {
    return false;
  }
  return certify_apart(snapshot.size(), box, kColocationEps + 2.0 * box.max_band + kCertFloor,
                       [&snapshot](std::size_t i) { return snapshot.proxy(i); });
}

bool ColocationIndex::certify_apart(const std::vector<geom::Vec2>& points, double margin) {
  SnapshotExtent box;
  for (const geom::Vec2 p : points) {
    if (finite(p)) box.include(p, 0.0);
  }
  return certify_apart(points.size(), box, margin,
                       [&points](std::size_t i) { return points[i]; });
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
  // plus its current band never exceeds its band at index_bases(). So bases
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
  certified_ = certify_apart(snapshot);
  if (certified_) return;  // every neighbour is kept
  const std::size_t m = snapshot.size();
  index_bases(snapshot);
  // Kept neighbours are indexed, dropped ones are not. A non-finite
  // coordinate is never almost_equal to anything, so such neighbours are
  // kept and stay out of the index. A dropped neighbour may leave its own
  // cell claimed with an empty chain: at most one cell per neighbour, as
  // the table is sized for.
  keep_.assign(m, 1);
  bool dropped = false;
  for (std::uint32_t i = 0; i < m; ++i) {
    if (!finite(basis_[i])) continue;
    std::size_t own = 0;
    if (has_partner(snapshot, i, kNoSelf, own)) {
      keep_[i] = 0;
      dropped = true;
    } else {
      insert(i, own);
    }
  }
  if (dropped) snapshot.retain(keep_);
}

void ColocationIndex::flag(Snapshot& snapshot) {
  probes_ = 0;
  certified_ = true;
  const std::size_t m = snapshot.size();
  if (m < 2) return;  // no pair to flag
  certified_ = certify_apart(snapshot);
  if (certified_) return;  // no neighbour shares its location
  index_bases(snapshot);
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
