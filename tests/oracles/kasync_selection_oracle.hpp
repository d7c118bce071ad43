// Scalar reference for sched::select_jittered, KAsyncScheduler's default
// robot selection: the per-robot loop the scheduler ran before the batched
// kernel, on std::mt19937_64 and the std distribution. The kernel must
// pick the same robot and leave the engine at the same stream position
// (tests/sched/kasync_selection_test.cpp).
#pragma once

#include <algorithm>
#include <limits>
#include <random>
#include <vector>

#include "core/types.hpp"

namespace cohesion::oracles {

/// Earliest jittered ready time, lowest robot index on ties.
inline core::RobotId select_jittered(std::mt19937_64& rng, const std::vector<double>& ready,
                                     double frontier) {
  core::RobotId best = 0;
  double best_t = std::numeric_limits<double>::infinity();
  std::uniform_real_distribution<double> tie(0.0, 1e-6);
  for (core::RobotId r = 0; r < ready.size(); ++r) {
    const double t = std::max(ready[r], frontier) + tie(rng);
    if (t < best_t) {
      best_t = t;
      best = r;
    }
  }
  return best;
}

}  // namespace cohesion::oracles
