#include "algo/kknps.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "geometry/angles.hpp"

namespace cohesion::algo {

using core::Snapshot;
using geom::Vec2;

namespace {

// A proxy is within kPerceptionSlack of its exact point, relative to
// |q.x| + |q.y| <= sqrt(2)·|q|: eight slacks certify a norm or a sign, and
// keep a pseudo-angle's order (below) with margin.
constexpr double kBand = 8.0 * core::kPerceptionSlack;
// A proxy's pseudo-angle is within ~3 slacks of its exact point's, whose
// angle moves at least half as fast: 16 slacks certify the order.
constexpr double kPseudoBand = 16.0 * core::kPerceptionSlack;
// Proxies with |q|² in this range are tame: squares, quotients and bands
// stay finite and far above the subnormal range, where relative bounds
// hold. The rest are wild.
constexpr double kMinNorm2 = 0x1p-1000;
constexpr double kMaxNorm2 = 0x1p+1000;

/// Whether every open quadrant holds a neighbour certainly distant and
/// certainly off the axes. Then each gap between distant directions is
/// narrower than pi by more than any rounding, and the rule stays put. A
/// bound V >= V_Y from the proxies certifies distance without V_Y itself.
/// The scan alternates between the ends of the snapshot, which the grids
/// order by id, so opposite sides of the neighbourhood come up early.
bool surrounded(const Snapshot& snapshot, const std::vector<double>& norm2, double max2,
                double wild_max, double distance_delta) {
  const double upper = std::max(std::sqrt(max2) * (1.0 + kBand), wild_max);
  const double far = upper / (1.0 + distance_delta) / 2.0 * (1.0 + kBand);
  const double far2 = far * far;
  if (!(far2 >= std::numeric_limits<double>::min() && far2 <= kMaxNorm2)) return false;
  const std::size_t m = norm2.size();
  unsigned quadrants = 0;
  for (std::size_t k = 0; k < m; ++k) {
    const std::size_t i = k % 2 == 0 ? k / 2 : m - 1 - k / 2;
    if (!(norm2[i] > far2)) continue;
    const Vec2 q = snapshot.proxy(i);
    const double ax = std::abs(q.x), ay = std::abs(q.y);
    const double edge = kBand * (ax + ay);
    if (ax <= edge || ay <= edge) continue;
    quadrants |= 1u << ((q.x < 0.0 ? 1 : 0) + (q.y < 0.0 ? 2 : 0));
    if (quadrants == 15u) return true;
  }
  return false;
}

}  // namespace

KknpsAlgorithm::KknpsAlgorithm() : KknpsAlgorithm(Params{}) {}

KknpsAlgorithm::KknpsAlgorithm(Params params) : params_(params) {
  if (params.k == 0) throw std::invalid_argument("KknpsAlgorithm: k must be >= 1");
  if (!std::isfinite(params.distance_delta) || params.distance_delta < 0.0) {
    throw std::invalid_argument("KknpsAlgorithm: distance_delta must be finite and >= 0");
  }
  if (!std::isfinite(params.radius_divisor) || params.radius_divisor <= 2.0) {
    // Divisor 2 would allow a planned move of V_Y, trivially unsafe.
    throw std::invalid_argument("KknpsAlgorithm: radius_divisor must be finite and exceed 2");
  }
  if (!std::isfinite(params.halfplane_tolerance) || params.halfplane_tolerance < 0.0) {
    // geom::half_plane_gap is exact only for thresholds >= pi.
    throw std::invalid_argument("KknpsAlgorithm: halfplane_tolerance must be finite and >= 0");
  }
}

Vec2 KknpsAlgorithm::compute(const Snapshot& snapshot) const {
  const std::size_t m = snapshot.size();
  if (m == 0) return {0.0, 0.0};

  // Every neighbour's proxy q lies within kPerceptionSlack·(|q.x| + |q.y|)
  // of its exact perceived point (core/snapshot.hpp), so norms and
  // directions are decided on proxies wherever a band of kBand certifies
  // the exact answer; only neighbours inside a band are materialized.
  // Proxies outside the tame range ("wild": zero, tiny, huge or
  // non-finite) have no relative bound and are decided on exact values.
  std::vector<double> norm2(m);  // proxy |q|², or -1 when wild
  double max2 = 0.0;
  bool any_wild = false;
  for (std::size_t i = 0; i < m; ++i) {
    const double a = snapshot.proxy(i).norm2();  // NaN fails both tests
    const bool tame = a >= kMinNorm2 && a <= kMaxNorm2;
    norm2[i] = tame ? a : -1.0;
    max2 = std::max(max2, norm2[i]);
    any_wild |= !tame;
  }
  double wild_max = 0.0;  // folded as V_Y folds them: a NaN norm is skipped
  for (std::size_t i = 0; any_wild && i < m; ++i) {
    if (norm2[i] < 0.0) wild_max = std::max(wild_max, snapshot.exact_position(i).norm());
  }
  if (surrounded(snapshot, norm2, max2, wild_max, params_.distance_delta)) return {0.0, 0.0};

  // V_Y, the maximum exact norm as Snapshot::furthest_distance folds it. A
  // tame neighbour below `top` is certainly shorter than the one with the
  // largest proxy.
  const double top = max2 * (1.0 - kBand);
  double v_y = wild_max;
  for (std::size_t i = 0; i < m; ++i) {
    if (norm2[i] >= top) v_y = std::max(v_y, snapshot.exact_position(i).norm());
  }
  // §6.1: guard against distance over-estimation.
  v_y /= (1.0 + params_.distance_delta);
  if (v_y <= 0.0) return {0.0, 0.0};

  // Distant means exact norm > V_Y/2: certain above far2, certainly not at
  // or below near2 (both off when the squares leave the normal range).
  const double half = v_y / 2.0;
  const double near = half * (1.0 - kBand), far = half * (1.0 + kBand);
  const bool squares_normal = near * near >= std::numeric_limits<double>::min() &&
                              far * far <= std::numeric_limits<double>::max();
  const double near2 = squares_normal ? near * near : -1.0;
  const double far2 = squares_normal ? far * far : std::numeric_limits<double>::infinity();

  // The largest gap, when it exceeds pi, is a gap of the distant set and
  // survives dropping any direction strictly inside an arc narrower than
  // pi between two kept ones. So in each half-plane y >= 0 and y < 0 keep
  // the directions that may be its most clockwise or most
  // counter-clockwise: those within kPseudoBand of its extremes in
  // pseudo-angle, a continuous monotone stand-in for the angle (an octant
  // base plus or minus min(|x|, |y|) / max(|x|, |y|), in [0, 8]). A
  // dropped direction is so far from the x axis that its exact point is
  // on its proxy's side; directions near the axis sit at a half-plane's
  // end and are kept. Wild directions and those whose distance needed the
  // exact test are kept outright. Only kept directions pay atan2, and
  // half_plane_gap then returns the full set's answer. The buffer now
  // holds each neighbour's pseudo-angle, or kSkip / kKeep.
  constexpr double kSkip = -1.0, kKeep = 16.0;
  // Octant (y < 0, x < 0, |y| > |x|) -> pseudo-angle base and orientation.
  constexpr std::array<double, 8> kBase{0.0, 2.0, 4.0, 2.0, 8.0, 6.0, 4.0, 6.0};
  constexpr std::array<double, 8> kSign{1.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0};
  double lo_up = kKeep, hi_up = kSkip, lo_down = kKeep, hi_down = kSkip;
  std::vector<double>& key = norm2;
  for (std::size_t i = 0; i < m; ++i) {
    const double a = norm2[i];
    if (a > far2) {
      const Vec2 q = snapshot.proxy(i);
      const double ax = std::abs(q.x), ay = std::abs(q.y);
      const double t = std::min(ax, ay) / std::max(ax, ay);
      const bool down = q.y < 0.0;
      const std::size_t o = (down ? 4u : 0u) + (q.x < 0.0 ? 2u : 0u) + (ay > ax ? 1u : 0u);
      const double pa = kBase[o] + kSign[o] * t;
      lo_up = std::min(lo_up, down ? kKeep : pa);
      hi_up = std::max(hi_up, down ? kSkip : pa);
      lo_down = std::min(lo_down, down ? pa : kKeep);
      hi_down = std::max(hi_down, down ? pa : kSkip);
      key[i] = pa;
    } else if (a < 0.0 || a > near2) {
      key[i] = snapshot.exact_position(i).norm() > half ? kKeep : kSkip;
    } else {
      key[i] = kSkip;
    }
  }

  std::vector<double> directions;
  for (std::size_t i = 0; i < m; ++i) {
    const double pa = key[i];
    if (pa == kSkip) continue;
    const bool down = pa > 4.0;  // pa == 4 is kept by either half-plane's test
    if (pa == kKeep || pa >= (down ? hi_down : hi_up) - kPseudoBand ||
        pa <= (down ? lo_down : lo_up) + kPseudoBand) {
      directions.push_back(snapshot.exact_position(i).angle());
    }
  }
  if (directions.empty()) return {0.0, 0.0};  // cannot happen with delta == 0

  const geom::AngularGap gap = geom::half_plane_gap(directions);
  if (gap.gap <= geom::kPi + params_.halfplane_tolerance) {
    // Y lies in the convex hull of its distant neighbours: the intersection
    // of safe regions is exactly {Y} — stay put.
    return {0.0, 0.0};
  }

  const double r = safe_radius(v_y);
  // The two distant neighbours bounding the occupied sector are the ones on
  // either side of the largest gap.
  const Vec2 c1 = geom::unit(directions[gap.after]) * r;
  const Vec2 c2 = geom::unit(directions[gap.before]) * r;
  return geom::midpoint(c1, c2);
}

}  // namespace cohesion::algo
