// Configuration statistics and convergence measurements.
#pragma once

#include <vector>

#include "core/trace.hpp"
#include "geometry/vec2.hpp"

namespace cohesion::metrics {

struct ConfigurationStats {
  double diameter = 0.0;        ///< max pairwise distance
  double hull_perimeter = 0.0;  ///< perimeter of the convex hull
  double sec_radius = 0.0;      ///< radius of the smallest enclosing circle
  double min_pairwise = 0.0;    ///< min pairwise distance (collision indicator)
  bool connected = false;       ///< visibility graph connected at radius v
};

ConfigurationStats configuration_stats(const std::vector<geom::Vec2>& positions, double v);

/// Exact minimum pairwise distance (0 for fewer than two points).
/// Grid-accelerated: expanding-radius nearest-neighbour queries over
/// core::IncrementalGrid — each round doubles the radius, resolves every point
/// that has a neighbour within it, and stops once no unresolved point can
/// beat the best distance found. The grid changes which pairs are
/// examined, never the distance computation, so the result is bit-identical
/// to the O(n^2) scan (tests/oracles/min_pairwise_oracle.hpp).
double min_pairwise_distance(const std::vector<geom::Vec2>& positions);

/// Time series of statistics sampled at the given times.
std::vector<ConfigurationStats> stats_over_time(const core::Trace& trace,
                                                const std::vector<core::Time>& times, double v);

/// Convergence-rate summary extracted from a finished trace.
struct ConvergenceReport {
  bool converged = false;       ///< final diameter <= epsilon
  double initial_diameter = 0.0;
  double final_diameter = 0.0;
  std::size_t rounds = 0;       ///< completed rounds (paper's rate unit)
  std::size_t rounds_to_halve = 0;  ///< rounds until diameter <= initial/2 (0 if never)
  std::size_t activations = 0;
  bool cohesive = true;         ///< E(0) subseteq E(t) at every sampled time
  double worst_stretch = 0.0;   ///< max over time of worst initial-pair distance / V
};

/// Analyze a trace: samples the configuration at every round boundary plus
/// the end of the trace. Single forward pass over the records (via
/// ConvergenceAccumulator) — no whole-trace position rescans. Bit-identical
/// to the original rescan, kept as the test oracle
/// tests/oracles/analyze_oracle.hpp.
ConvergenceReport analyze(const core::Trace& trace, double v, double epsilon);

}  // namespace cohesion::metrics
