// Reference for metrics::analyze and the streaming ConvergenceAccumulator:
// the original whole-trace rescan. Round boundaries come from the full
// trace, and the configuration at every sample is rebuilt by per-robot
// binary searches. Both single-pass paths must reproduce it bit for bit
// (tests/trace/online_metrics_test.cpp).
#pragma once

#include <algorithm>
#include <vector>

#include "core/trace.hpp"
#include "core/visibility.hpp"
#include "geometry/convex_hull.hpp"
#include "metrics/stats.hpp"

namespace cohesion::oracles {

inline metrics::ConvergenceReport analyze_rescan(const core::Trace& trace, double v,
                                                 double epsilon) {
  metrics::ConvergenceReport rep;
  rep.activations = trace.records().size();
  const auto& initial = trace.initial_configuration();
  rep.initial_diameter = geom::set_diameter(initial);

  std::vector<core::Time> samples = trace.round_boundaries();
  samples.push_back(trace.end_time() + 1.0);
  rep.rounds = samples.size() >= 2 ? samples.size() - 2 : 0;

  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto cfg = trace.configuration(samples[i]);
    const double diam = geom::set_diameter(cfg);
    if (rep.rounds_to_halve == 0 && i > 0 && diam <= rep.initial_diameter / 2.0) {
      rep.rounds_to_halve = i;
    }
    const double stretch = core::worst_initial_pair_stretch(initial, cfg, v);
    rep.worst_stretch = std::max(rep.worst_stretch, stretch);
    if (stretch > 1.0 + 1e-9) rep.cohesive = false;
  }
  rep.final_diameter = geom::set_diameter(trace.configuration(trace.end_time() + 1.0));
  rep.converged = rep.final_diameter <= epsilon;
  return rep;
}

}  // namespace cohesion::oracles
