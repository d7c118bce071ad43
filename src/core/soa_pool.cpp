#include "core/soa_pool.hpp"

namespace cohesion::core {

using geom::Vec2;

// ---------------------------------------------------------------------------
// SoaSegmentPool
// ---------------------------------------------------------------------------

void SoaSegmentPool::reset(const std::vector<Vec2>& initial) {
  const std::size_t n = initial.size();
  from_x_.resize(n);
  from_y_.resize(n);
  to_x_.resize(n);
  to_y_.resize(n);
  t_start_.assign(n, 0.0);
  t_end_.assign(n, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    from_x_[r] = to_x_[r] = initial[r].x;
    from_y_[r] = to_y_[r] = initial[r].y;
  }
}

void SoaSegmentPool::commit(const ActivationRecord& rec) {
  const RobotId r = rec.activation.robot;
  from_x_[r] = rec.from.x;
  from_y_[r] = rec.from.y;
  to_x_[r] = rec.realized.x;
  to_y_[r] = rec.realized.y;
  t_start_[r] = rec.activation.t_move_start;
  t_end_[r] = rec.activation.t_move_end;
}

Vec2 SoaSegmentPool::position_at(RobotId robot, Time t) const {
  // KinematicState::eval's exact branches and arithmetic.
  const double ts = t_start_[robot];
  const double te = t_end_[robot];
  if (t >= te) return {to_x_[robot], to_y_[robot]};
  if (t >= ts) {
    const Time span = te - ts;
    const double frac = span > 0.0 ? (t - ts) / span : 1.0;
    return {from_x_[robot] + (to_x_[robot] - from_x_[robot]) * frac,
            from_y_[robot] + (to_y_[robot] - from_y_[robot]) * frac};
  }
  return {from_x_[robot], from_y_[robot]};
}

// ---------------------------------------------------------------------------
// SoaNeighborFilter
// ---------------------------------------------------------------------------

void SoaNeighborFilter::gather_positions(const std::vector<Vec2>& positions,
                                         const std::vector<std::size_t>& candidates,
                                         RobotId self) {
  const std::size_t m = candidates.size();
  ids_.clear();
  px_.clear();
  py_.clear();
  ids_.reserve(m);
  px_.reserve(m);
  py_.reserve(m);
  for (const std::size_t c : candidates) {
    if (c == self) continue;
    ids_.push_back(static_cast<std::uint32_t>(c));
    px_.push_back(positions[c].x);
    py_.push_back(positions[c].y);
  }
}

namespace {

// Pass 2 of gather_segments — branchless KinematicState::eval per lane:
// the selects mirror its branches and the lerp its arithmetic exactly, so
// every lane is bit-identical to the scalar cache. Kept as a free function
// with __restrict parameters: that is the one shape GCC's vectorizer
// accepts here. Inlined into the caller it fuses with the gather pass and
// reverts to indexed loads (no vector type); restrict-qualified locals
// (instead of parameters) leave too many alias checks and the loop stays
// scalar. The division is unconditional over a value-guarded denominator
// (safe_span) because an if-converted divide is rejected by the
// vectorizer; its quotient is then selected away for lanes the scalar
// code never divides on. The branch conditions are computed once and
// shared by both coordinate lanes: duplicating `t >= te` per output grows
// the CFG past what the if-converter will flatten.
[[gnu::noinline]] void eval_segment_lanes(
    std::size_t k, Time t, const double* __restrict gts, const double* __restrict gte,
    const double* __restrict gfx, const double* __restrict gfy, const double* __restrict gtx,
    const double* __restrict gty, double* __restrict outx, double* __restrict outy) {
  for (std::size_t i = 0; i < k; ++i) {
    const double ts = gts[i];
    const double te = gte[i];
    const double span = te - ts;
    const double safe_span = span > 0.0 ? span : 1.0;
    const double ratio = (t - ts) / safe_span;
    const double frac = span > 0.0 ? ratio : 1.0;
    const double ax = gfx[i];
    const double ay = gfy[i];
    const double bx = gtx[i];
    const double by = gty[i];
    const double mx = ax + (bx - ax) * frac;
    const double my = ay + (by - ay) * frac;
    const bool moving = t >= ts;
    const bool done = t >= te;
    const double ix = moving ? mx : ax;
    const double iy = moving ? my : ay;
    outx[i] = done ? bx : ix;
    outy[i] = done ? by : iy;
  }
}

}  // namespace

void SoaNeighborFilter::gather_segments(const SoaSegmentPool& pool,
                                        const std::vector<std::size_t>& candidates,
                                        RobotId self, Time t) {
  ids_.clear();
  ids_.reserve(candidates.size());
  for (const std::size_t c : candidates) {
    if (c == self) continue;
    ids_.push_back(static_cast<std::uint32_t>(c));
  }
  const std::size_t k = ids_.size();
  px_.resize(k);
  py_.resize(k);
  seg_fx_.resize(k);
  seg_fy_.resize(k);
  seg_tx_.resize(k);
  seg_ty_.resize(k);
  seg_ts_.resize(k);
  seg_te_.resize(k);
  const double* fx = pool.from_x();
  const double* fy = pool.from_y();
  const double* tx = pool.to_x();
  const double* ty = pool.to_y();
  const double* ts_lane = pool.t_move_start();
  const double* te_lane = pool.t_move_end();
  const std::uint32_t* id = ids_.data();
  // Pass 1 — gather: pull the candidates' segment lanes into contiguous
  // scratch. Indexed loads have no vector type on baseline ISAs, and mixed
  // into the arithmetic they defeat the vectorizer entirely, so the gather
  // is kept as a plain scalar loop (pure loads, high ILP) and the math
  // below gets unit-stride inputs.
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t c = id[i];
    seg_fx_[i] = fx[c];
    seg_fy_[i] = fy[c];
    seg_tx_[i] = tx[c];
    seg_ty_[i] = ty[c];
    seg_ts_[i] = ts_lane[c];
    seg_te_[i] = te_lane[c];
  }
  eval_segment_lanes(k, t, seg_ts_.data(), seg_te_.data(), seg_fx_.data(), seg_fy_.data(),
                     seg_tx_.data(), seg_ty_.data(), px_.data(), py_.data());
}

void SoaNeighborFilter::filter(Vec2 self, double radius, bool open_ball) {
  const std::size_t m = ids_.size();
  dx_.resize(m);
  dy_.resize(m);
  d2_.resize(m);
  const double sx = self.x;
  const double sy = self.y;
  const double* px = px_.data();
  const double* py = py_.data();
  double* dx = dx_.data();
  double* dy = dy_.data();
  double* d2 = d2_.data();
  // The vectorizable kernel: pure mul/add lanes, no calls, no branches.
  for (std::size_t i = 0; i < m; ++i) {
    const double ddx = px[i] - sx;
    const double ddy = py[i] - sy;
    dx[i] = ddx;
    dy[i] = ddy;
    d2[i] = ddx * ddx + ddy * ddy;
  }
  const VisibilityBall ball(self, radius, open_ball);
  survivors_.clear();
  for (std::size_t i = 0; i < m; ++i) {
    if (!ball.contains({px[i], py[i]}, d2[i])) continue;
    survivors_.push_back(static_cast<std::uint32_t>(i));
  }
}

}  // namespace cohesion::core
