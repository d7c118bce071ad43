#include "core/validators.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace cohesion::core {

namespace {

struct Interval {
  RobotId robot;
  Time start, end;
};

/// The trace's activity intervals, sorted by start.
std::vector<Interval> intervals_by_start(const Trace& trace) {
  std::vector<Interval> out;
  out.reserve(trace.records().size());
  for (const ActivationRecord& rec : trace.records()) {
    out.push_back({rec.activation.robot, rec.start(), rec.end()});
  }
  std::sort(out.begin(), out.end(), [](const Interval& a, const Interval& b) {
    return a.start < b.start;
  });
  return out;
}

constexpr double kEps = 1e-9;

}  // namespace

std::size_t max_activations_within_interval(const Trace& trace) {
  const auto ivals = intervals_by_start(trace);
  std::vector<std::size_t> counts(trace.robot_count(), 0);
  std::size_t worst = 0;
  for (const Interval& outer : ivals) {
    // The Looks in (outer.start + kEps, outer.end - kEps) are one window of
    // the sorted starts; counting them and then resetting the robots they
    // touched costs the window, not n.
    const auto first = std::upper_bound(ivals.begin(), ivals.end(), outer.start + kEps,
                                        [](double t, const Interval& i) { return t < i.start; });
    auto last = first;
    for (; last != ivals.end() && last->start < outer.end - kEps; ++last) {
      if (last->robot != outer.robot) worst = std::max(worst, ++counts[last->robot]);
    }
    for (auto it = first; it != last; ++it) counts[it->robot] = 0;
  }
  return worst;
}

bool is_nested_activation(const Trace& trace) {
  const auto ivals = intervals_by_start(trace);
  for (std::size_t i = 0; i < ivals.size(); ++i) {
    const Interval& a = ivals[i];
    // Starts do not decrease, so once one b starts at or after a's end
    // (within kEps) every later one does: the rest are disjoint from a.
    for (std::size_t j = i + 1; j < ivals.size() && !(a.end <= ivals[j].start + kEps); ++j) {
      const Interval& b = ivals[j];
      if (a.robot == b.robot) continue;
      if (b.end <= a.start + kEps) continue;  // disjoint
      // Nested?
      const bool a_in_b = a.start >= b.start - kEps && a.end <= b.end + kEps;
      const bool b_in_a = b.start >= a.start - kEps && b.end <= a.end + kEps;
      if (!a_in_b && !b_in_a) return false;
    }
  }
  return true;
}

bool is_k_nesta(const Trace& trace, std::size_t k) {
  return is_nested_activation(trace) && max_activations_within_interval(trace) <= k;
}

bool is_k_async(const Trace& trace, std::size_t k) {
  return max_activations_within_interval(trace) <= k;
}

bool is_ssync(const Trace& trace, double round_length) {
  for (const ActivationRecord& rec : trace.records()) {
    const Time start = rec.start();
    const Time end = rec.end();
    const double round = std::floor(start / round_length + kEps);
    const Time r0 = round * round_length;
    const Time r1 = r0 + round_length;
    if (start < r0 - kEps || end > r1 + kEps) return false;
  }
  return true;
}

bool is_fair(const Trace& trace, Time window) {
  const std::size_t n = trace.robot_count();
  std::vector<Time> last(n, 0.0);
  for (const ActivationRecord& rec : trace.records()) {
    const RobotId r = rec.activation.robot;
    if (rec.start() - last[r] > window + kEps) return false;
    last[r] = rec.start();
  }
  return true;
}

}  // namespace cohesion::core
