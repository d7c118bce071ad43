#include "core/snapshot.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace cohesion::core {

void Snapshot::stage(geom::Vec2 true_offset, std::mt19937_64& rng) {
  if (!staged_frame_) throw std::logic_error("Snapshot::stage: not a staged snapshot");
  const StagedOffset s = frame_.stage(true_offset, rng);
  const geom::Vec2 q = s.proxy();
  const double l1 = std::abs(q.x) + std::abs(q.y);  // NaN fails both tests
  const bool tame = !frame_.skewed() && l1 >= kMinProxyNorm && l1 <= kMaxProxyNorm;
  staged_.push_back(s);
  exact_.push_back(tame ? 0 : 1);
  if (tame) {
    neighbours_.push_back({q, false});
    ++pending_;
  } else {
    neighbours_.push_back({frame_.finish(s), false});
    ++materializations_;
  }
}

void Snapshot::reserve(std::size_t n) {
  neighbours_.reserve(n);
  if (staged_frame_) {
    exact_.reserve(n);
    staged_.reserve(n);
  }
}

void Snapshot::materialize(std::size_t i) const {
  neighbours_[i].position = frame_.finish(staged_[i]);
  exact_[i] = 1;
  --pending_;
  ++materializations_;
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
