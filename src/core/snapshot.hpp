// The result of a Look phase: an instantaneous, egocentric, possibly
// distorted view of the visible neighbourhood (paper §2.2).
//
// A snapshot built by the engine is *staged*: each neighbour keeps its
// StagedOffset (LocalFrame::stage, which takes every RNG draw of the Look)
// and, in place of its perceived position, the proxy offset * scale. In a
// frame without skew the proxy q is within kPerceptionSlack·(|q.x| + |q.y|)
// of the perceived point LocalFrame::finish() builds with libm, so a
// consumer can decide most questions on proxies and build exact positions
// (materialize) only for the few neighbours whose answer falls inside that
// band. neighbours() materializes everything, so a consumer that reads
// coordinates directly (every algorithm but KKNPS, perception hooks) sees
// exactly what an eager LocalFrame::perceive() loop would have produced.
// Neighbours of skewed frames, and neighbours whose proxies leave the
// tame range below, are materialized as they are staged.
//
// Staging also folds the extent co-location certifies on (SnapshotExtent);
// a snapshot not built by stage(), or moved since, folds it on first use.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/error_model.hpp"
#include "geometry/vec2.hpp"

namespace cohesion::core {

/// One robot as perceived by the observer, in the observer's local
/// (private, possibly distorted) coordinate system. The observer itself is
/// at the origin and is NOT included.
struct ObservedRobot {
  geom::Vec2 position;      ///< perceived local position
  bool multiplicity = false;  ///< >1 robot here (set only with multiplicity detection)
};

/// Relative bound on a proxy's distance from its perceived point: for a
/// neighbour staged in a frame without skew, with proxy q and perceived
/// point P = LocalFrame::finish(), |P - q| <= kPerceptionSlack·(|q.x| + |q.y|).
/// The polar round trip (hypot, atan2, sin/cos, two products) and the
/// proxy's own rounding stay within ~2^-49 relative for libm functions
/// accurate to 1 ulp; 2^-45 leaves a 16x margin.
inline constexpr double kPerceptionSlack = 0x1p-45;

/// Proxies are kept only while |q.x| + |q.y| lies in [kMinProxyNorm,
/// kMaxProxyNorm]: relative bounds hold far above the subnormal range, and
/// a band stays at most 2^-40, below co-location's eps (core/colocation.hpp).
inline constexpr double kMinProxyNorm = 0x1p-500;
inline constexpr double kMaxProxyNorm = 32.0;

/// The bounding box of a snapshot's finite positions, how many there are,
/// and the largest band of a proxy among them (0 when all are exact).
struct SnapshotExtent {
  static constexpr double kInf = std::numeric_limits<double>::infinity();
  double x0 = kInf, x1 = -kInf, y0 = kInf, y1 = -kInf;
  std::size_t finite = 0;
  double max_band = 0.0;

  /// Fold in the finite position `p`, whose band is `band`.
  void include(geom::Vec2 p, double band) {
    x0 = std::min(x0, p.x);
    x1 = std::max(x1, p.x);
    y0 = std::min(y0, p.y);
    y1 = std::max(y1, p.y);
    max_band = std::max(max_band, band);
    ++finite;
  }
};

/// Input to an activation's Compute phase.
class Snapshot {
 public:
  Snapshot() = default;
  /// A snapshot of exact perceived positions.
  explicit Snapshot(std::vector<ObservedRobot> neighbours) : neighbours_(std::move(neighbours)) {}
  /// An empty staged snapshot seen through `frame`; see stage().
  explicit Snapshot(const LocalFrame& frame) { restage(frame); }

  /// Empty this into a staged snapshot seen through `frame`, keeping its
  /// buffers, so one Snapshot serves Look after Look without allocating.
  void restage(const LocalFrame& frame);
  /// Append the neighbour at `true_offset` (neighbour - observer), drawing
  /// from `rng` exactly as frame.perceive() would; staged snapshots only.
  /// Inlined into the engine's Look, which calls it per visible neighbour.
  [[gnu::always_inline]] void stage(geom::Vec2 true_offset, std::mt19937_64& rng) {
    if (!staged_frame_) throw std::logic_error("Snapshot::stage: not a staged snapshot");
    const StagedOffset s = frame_.stage(true_offset, rng);
    const geom::Vec2 q = s.proxy();
    const double l1 = std::abs(q.x) + std::abs(q.y);  // NaN fails both tests
    if (frame_.skewed() || !(l1 >= kMinProxyNorm && l1 <= kMaxProxyNorm)) {
      stage_exact(s);
      return;
    }
    staged_.push_back(s);
    exact_.push_back(0);
    neighbours_.push_back({q, false});
    extent_.include(q, kPerceptionSlack * l1);
    ++pending_;
  }

  [[nodiscard]] bool empty() const { return neighbours_.empty(); }
  [[nodiscard]] std::size_t size() const { return neighbours_.size(); }

  /// Visible robots, observer excluded, at their exact perceived positions
  /// (materializing every neighbour not yet built).
  [[nodiscard]] const std::vector<ObservedRobot>& neighbours() const;
  /// Mutable access: materializes every neighbour and drops the staging,
  /// so the snapshot is plain exact positions from then on.
  [[nodiscard]] std::vector<ObservedRobot>& neighbours();

  /// Neighbour i's position: its proxy until materialized, then exact.
  [[nodiscard]] geom::Vec2 proxy(std::size_t i) const { return neighbours_[i].position; }
  /// Whether proxy(i) is the exact perceived position. A neighbour that is
  /// not exact has a finite proxy within the tame range and a frame
  /// without skew, so kPerceptionSlack bounds its distance from exact.
  [[nodiscard]] bool exact(std::size_t i) const { return exact_.empty() || exact_[i] != 0; }
  /// How far proxy(i) may lie from exact per axis (0 once exact).
  [[nodiscard]] double band(std::size_t i) const {
    if (exact(i)) return 0.0;
    const geom::Vec2 q = proxy(i);
    return kPerceptionSlack * (std::abs(q.x) + std::abs(q.y));
  }
  /// The extent of the current positions (proxies until materialized).
  [[nodiscard]] const SnapshotExtent& extent() const;
  /// Neighbour i's exact perceived position, materialized on first use.
  [[nodiscard]] geom::Vec2 exact_position(std::size_t i) const {
    if (!exact(i)) materialize(i);
    return neighbours_[i].position;
  }
  void set_multiplicity(std::size_t i) { neighbours_[i].multiplicity = true; }
  /// Keep neighbour i iff keep[i] != 0, preserving order.
  void retain(const std::vector<std::uint8_t>& keep);

  /// Exact perceived positions this snapshot has built with libm: at
  /// staging (skewed frames, untame proxies) and on demand since. A
  /// deterministic work count, in the style of ColocationIndex::probes().
  [[nodiscard]] std::size_t materializations() const { return materializations_; }

  /// Perceived distance to the furthest visible neighbour — the paper's
  /// working lower bound V_Y on the (unknown) visibility radius.
  [[nodiscard]] double furthest_distance() const;

 private:
  void materialize(std::size_t i) const;
  /// stage()'s other path: append `s` at its exact perceived position.
  void stage_exact(const StagedOffset& s);

  // Positions are proxies where exact_[i] == 0 and exact otherwise; the
  // lazy fills are invisible to a reader, hence mutable.
  mutable std::vector<ObservedRobot> neighbours_;
  mutable std::vector<std::uint8_t> exact_;  // empty: every position exact
  std::vector<StagedOffset> staged_;          // parallel to exact_
  mutable std::size_t pending_ = 0;           // neighbours not yet exact
  mutable std::size_t materializations_ = 0;
  mutable SnapshotExtent extent_;             // of neighbours_, unless stale
  mutable bool extent_stale_ = true;
  LocalFrame frame_;
  bool staged_frame_ = false;
};

}  // namespace cohesion::core
