#include "core/snapshot.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace cohesion::core {

void Snapshot::restage(const LocalFrame& frame) {
  neighbours_.clear();
  exact_.clear();
  staged_.clear();
  pending_ = 0;
  materializations_ = 0;
  extent_ = {};
  extent_stale_ = false;
  frame_ = frame;
  staged_frame_ = true;
}

void Snapshot::stage_exact(const StagedOffset& s) {
  const geom::Vec2 p = frame_.finish(s);
  staged_.push_back(s);
  exact_.push_back(1);
  neighbours_.push_back({p, false});
  ++materializations_;
  if (std::isfinite(p.x) && std::isfinite(p.y)) extent_.include(p, 0.0);
}

const SnapshotExtent& Snapshot::extent() const {
  if (extent_stale_) {
    extent_ = {};
    for (std::size_t i = 0; i < neighbours_.size(); ++i) {
      const geom::Vec2 p = neighbours_[i].position;
      if (std::isfinite(p.x) && std::isfinite(p.y)) extent_.include(p, band(i));
    }
    extent_stale_ = false;
  }
  return extent_;
}

void Snapshot::materialize(std::size_t i) const {
  neighbours_[i].position = frame_.finish(staged_[i]);
  exact_[i] = 1;
  --pending_;
  ++materializations_;
  extent_stale_ = true;
}

const std::vector<ObservedRobot>& Snapshot::neighbours() const {
  for (std::size_t i = 0; pending_ > 0 && i < neighbours_.size(); ++i) {
    if (!exact_[i]) materialize(i);
  }
  return neighbours_;
}

std::vector<ObservedRobot>& Snapshot::neighbours() {
  (void)std::as_const(*this).neighbours();
  exact_.clear();
  staged_.clear();
  staged_frame_ = false;
  extent_stale_ = true;
  return neighbours_;
}

void Snapshot::retain(const std::vector<std::uint8_t>& keep) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < neighbours_.size(); ++i) {
    if (!keep[i]) {
      if (!exact(i)) --pending_;
      continue;
    }
    neighbours_[kept] = neighbours_[i];
    if (!exact_.empty()) {
      exact_[kept] = exact_[i];
      staged_[kept] = staged_[i];
    }
    ++kept;
  }
  neighbours_.resize(kept);
  extent_stale_ = true;
  if (!exact_.empty()) {
    exact_.resize(kept);
    staged_.resize(kept);
  }
}

double Snapshot::furthest_distance() const {
  double best = 0.0;
  for (const auto& o : neighbours()) best = std::max(best, o.position.norm());
  return best;
}

}  // namespace cohesion::core
