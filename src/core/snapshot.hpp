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
#pragma once

#include <cstddef>
#include <cstdint>
#include <random>
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
/// kMaxProxyNorm]: squares and pairwise products of such coordinates stay
/// finite and far above the subnormal range, where relative bounds hold.
inline constexpr double kMinProxyNorm = 0x1p-500;
inline constexpr double kMaxProxyNorm = 0x1p500;

/// Input to an activation's Compute phase.
class Snapshot {
 public:
  Snapshot() = default;
  /// A snapshot of exact perceived positions.
  explicit Snapshot(std::vector<ObservedRobot> neighbours) : neighbours_(std::move(neighbours)) {}
  /// An empty staged snapshot seen through `frame`; see stage().
  explicit Snapshot(const LocalFrame& frame) : frame_(frame), staged_frame_(true) {}

  /// Append the neighbour at `true_offset` (neighbour - observer), drawing
  /// from `rng` exactly as frame.perceive() would. Staged snapshots only.
  void stage(geom::Vec2 true_offset, std::mt19937_64& rng);
  void reserve(std::size_t n);

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

  // Positions are proxies where exact_[i] == 0 and exact otherwise; the
  // lazy fills are invisible to a reader, hence mutable.
  mutable std::vector<ObservedRobot> neighbours_;
  mutable std::vector<std::uint8_t> exact_;  // empty: every position exact
  std::vector<StagedOffset> staged_;          // parallel to exact_
  mutable std::size_t pending_ = 0;           // neighbours not yet exact
  mutable std::size_t materializations_ = 0;
  LocalFrame frame_;
  bool staged_frame_ = false;
};

}  // namespace cohesion::core
