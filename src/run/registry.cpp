#include "run/registry.hpp"

#include <cmath>
#include <stdexcept>

#include "algo/baselines.hpp"
#include "algo/kknps.hpp"
#include "algo/kknps3d.hpp"
#include "algo/lens_midpoint.hpp"
#include "core/activation.hpp"
#include "metrics/configurations.hpp"
#include "sched/asynchronous.hpp"
#include "sched/synchronous.hpp"

namespace cohesion::run {

namespace {

std::unique_ptr<core::Scheduler> make_kasync(std::size_t n, std::uint64_t seed, const Json& params,
                                             bool unrestricted) {
  Fields f(params, unrestricted ? "async" : "kasync");
  sched::KAsyncScheduler::Params p;
  // k = 0 (or the "async" key, which reads and ignores k) selects
  // unrestricted Async.
  const std::size_t k = f.size("k", p.k);
  p.k = unrestricted || k == 0 ? static_cast<std::size_t>(-1) : k;
  p.min_duration = f.number("min_duration", p.min_duration);
  p.max_duration = f.number("max_duration", p.max_duration);
  p.min_gap = f.number("min_gap", p.min_gap);
  p.max_gap = f.number("max_gap", p.max_gap);
  p.xi = f.number("xi", p.xi);
  // true, the old default, is a no-op, so existing specs and their cache
  // identities hold.
  f.retired("indexed_intervals", true,
            "the flat interval scan it selected is the test reference "
            "tests/oracles/kasync_interval_oracle.hpp");
  p.heap_selection = f.flag("heap_selection", p.heap_selection);
  p.seed = f.uint("seed", seed);
  f.done();
  return std::make_unique<sched::KAsyncScheduler>(n, p);
}

void register_algorithms(Registry<AlgorithmFactory>& r) {
  r.add("kknps", [](const Json& params) -> std::unique_ptr<core::Algorithm> {
    Fields f(params, "kknps");
    algo::KknpsAlgorithm::Params p;
    p.k = f.size("k", p.k);
    p.distance_delta = f.number("distance_delta", p.distance_delta);
    p.halfplane_tolerance = f.number("halfplane_tolerance", p.halfplane_tolerance);
    p.radius_divisor = f.number("radius_divisor", p.radius_divisor);
    f.done();
    return std::make_unique<algo::KknpsAlgorithm>(p);
  });
  r.add("kknps3d", [](const Json& params) -> std::unique_ptr<core::Algorithm> {
    Fields f(params, "kknps3d");
    algo::Kknps3dParams p;
    p.k = f.size("k", p.k);
    p.hull_tolerance = f.number("hull_tolerance", p.hull_tolerance);
    f.done();
    return std::make_unique<algo::Kknps3dPlanarAlgorithm>(p);
  });
  r.add("ando", [](const Json& params) -> std::unique_ptr<core::Algorithm> {
    // v <= 0 selects the weakened "furthest neighbour" variant (footnote 9).
    Fields f(params, "ando");
    const double v = f.number("v", 1.0);
    f.done();
    return std::make_unique<algo::AndoAlgorithm>(v);
  });
  r.add("katreniak", [](const Json& params) -> std::unique_ptr<core::Algorithm> {
    Fields(params, "katreniak").done();
    return std::make_unique<algo::KatreniakAlgorithm>();
  });
  r.add("cog", [](const Json& params) -> std::unique_ptr<core::Algorithm> {
    Fields(params, "cog").done();
    return std::make_unique<algo::CogAlgorithm>();
  });
  r.add("gcm", [](const Json& params) -> std::unique_ptr<core::Algorithm> {
    Fields(params, "gcm").done();
    return std::make_unique<algo::GcmAlgorithm>();
  });
  r.add("null", [](const Json& params) -> std::unique_ptr<core::Algorithm> {
    Fields(params, "null").done();
    return std::make_unique<algo::NullAlgorithm>();
  });
  r.add("lens_midpoint", [](const Json& params) -> std::unique_ptr<core::Algorithm> {
    Fields f(params, "lens_midpoint");
    algo::LensMidpointAlgorithm::Params p;
    p.colinearity_tolerance = f.number("colinearity_tolerance", p.colinearity_tolerance);
    f.done();
    return std::make_unique<algo::LensMidpointAlgorithm>(p);
  });
}

void register_schedulers(Registry<SchedulerFactory>& r) {
  r.add("fsync",
        [](std::size_t n, std::uint64_t, const Json& params) -> std::unique_ptr<core::Scheduler> {
          Fields(params, "fsync").done();
          return std::make_unique<sched::FSyncScheduler>(n);
        });
  r.add("ssync",
        [](std::size_t n, std::uint64_t seed, const Json& params) -> std::unique_ptr<core::Scheduler> {
          Fields f(params, "ssync");
          sched::SSyncScheduler::Params p;
          p.activation_probability = f.number("activation_probability", p.activation_probability);
          p.fairness_window = f.size("fairness_window", p.fairness_window);
          p.xi = f.number("xi", p.xi);
          p.seed = f.uint("seed", seed);
          f.done();
          return std::make_unique<sched::SSyncScheduler>(n, p);
        });
  r.add("kasync",
        [](std::size_t n, std::uint64_t seed, const Json& params) -> std::unique_ptr<core::Scheduler> {
          return make_kasync(n, seed, params, /*unrestricted=*/false);
        });
  r.add("async",
        [](std::size_t n, std::uint64_t seed, const Json& params) -> std::unique_ptr<core::Scheduler> {
          return make_kasync(n, seed, params, /*unrestricted=*/true);
        });
  r.add("knesta",
        [](std::size_t n, std::uint64_t seed, const Json& params) -> std::unique_ptr<core::Scheduler> {
          Fields f(params, "knesta");
          sched::KNestAScheduler::Params p;
          p.k = f.size("k", p.k);
          p.xi = f.number("xi", p.xi);
          p.seed = f.uint("seed", seed);
          f.done();
          return std::make_unique<sched::KNestAScheduler>(n, p);
        });
  r.add("scripted",
        [](std::size_t, std::uint64_t, const Json& params) -> std::unique_ptr<core::Scheduler> {
          // params.script: [[robot, t_look, t_move_start, t_move_end, frac], ...]
          Fields in(params, "scripted");
          const JsonArray& rows = in.array("script");
          in.done();
          std::vector<core::Activation> script;
          for (const Json& row : rows) {
            const JsonArray& f = row.items();
            if (f.size() != 5) throw std::runtime_error("scripted: rows need 5 fields");
            core::Activation a;
            a.robot = static_cast<core::RobotId>(f[0].as_uint());
            a.t_look = f[1].as_double();
            a.t_move_start = f[2].as_double();
            a.t_move_end = f[3].as_double();
            a.realized_fraction = f[4].as_double();
            script.push_back(a);
          }
          return std::make_unique<sched::ScriptedScheduler>(std::move(script));
        });
}

void register_errors(Registry<ErrorModelFactory>& r) {
  // "exact": identity frames, no noise — the validator/test setting.
  r.add("exact", [](const Json& params) {
    Fields(params, "exact").done();
    core::ErrorModel m;
    m.random_rotation = false;
    return m;
  });
  // "noisy": the engine's general setting — rotated local frames plus
  // whatever error magnitudes the params set (all default 0, which is the
  // engine's own default ErrorModel).
  r.add("noisy", [](const Json& params) {
    Fields f(params, "noisy");
    core::ErrorModel m;
    m.distance_delta = f.number("distance_delta", m.distance_delta);
    m.skew_lambda = f.number("skew_lambda", m.skew_lambda);
    m.motion_quad_coeff = f.number("motion_quad_coeff", m.motion_quad_coeff);
    m.random_rotation = f.flag("random_rotation", m.random_rotation);
    m.allow_reflection = f.flag("allow_reflection", m.allow_reflection);
    f.done();
    m.validate("noisy");
    return m;
  });
}

void register_initials(Registry<InitialConfigFactory>& r) {
  // Spacing-style params are in units of the visibility radius v.
  r.add("line", [](std::size_t n, double v, std::uint64_t, const Json& params) {
    Fields f(params, "line");
    const double spacing = f.number("spacing", 0.9);
    f.done();
    return metrics::line_configuration(n, spacing * v);
  });
  r.add("grid", [](std::size_t n, double v, std::uint64_t, const Json& params) {
    Fields f(params, "grid");
    const double spacing = f.number("spacing", 0.9);
    f.done();
    return metrics::grid_configuration(n, spacing * v);
  });
  r.add("circle", [](std::size_t n, double v, std::uint64_t, const Json& params) {
    Fields f(params, "circle");
    const double side = f.number("side", 0.9);
    f.done();
    return metrics::regular_polygon_configuration(n, side * v);
  });
  r.add("random", [](std::size_t n, double v, std::uint64_t seed, const Json& params) {
    // world_radius wins when given; otherwise radius scales with sqrt(n)
    // for asymptotically constant density.
    Fields f(params, "random");
    double radius = f.number("world_radius", -1.0);
    const double per_sqrt_n = f.number("world_radius_per_sqrt_n", 0.4);
    const std::uint64_t pinned = f.uint("seed", seed);
    f.done();
    if (radius <= 0.0) radius = per_sqrt_n * v * std::sqrt(static_cast<double>(n));
    return metrics::random_connected_configuration(n, radius, v, pinned);
  });
  r.add("two_cluster", [](std::size_t n, double v, std::uint64_t seed, const Json& params) {
    Fields f(params, "two_cluster");
    const std::size_t bridge = f.size("bridge", 3);
    const std::uint64_t pinned = f.uint("seed", seed);
    f.done();
    return metrics::two_cluster_configuration(n, bridge, v, pinned);
  });
  r.add("spiral", [](std::size_t, double v, std::uint64_t, const Json& params) {
    // Robot count is dictated by the construction; RunSpec.n is overridden.
    Fields f(params, "spiral");
    const double psi = f.number("psi", 0.3);
    const double edge_scale = f.number("edge_scale", 0.92);
    f.done();
    return metrics::spiral_configuration(psi, edge_scale * v).positions;
  });
}

}  // namespace

Registry<AlgorithmFactory>& algorithms() {
  static Registry<AlgorithmFactory>* r = [] {
    auto* reg = new Registry<AlgorithmFactory>("algorithm");
    register_algorithms(*reg);
    return reg;
  }();
  return *r;
}

Registry<SchedulerFactory>& schedulers() {
  static Registry<SchedulerFactory>* r = [] {
    auto* reg = new Registry<SchedulerFactory>("scheduler");
    register_schedulers(*reg);
    return reg;
  }();
  return *r;
}

Registry<ErrorModelFactory>& errors() {
  static Registry<ErrorModelFactory>* r = [] {
    auto* reg = new Registry<ErrorModelFactory>("error model");
    register_errors(*reg);
    return reg;
  }();
  return *r;
}

Registry<InitialConfigFactory>& initials() {
  static Registry<InitialConfigFactory>* r = [] {
    auto* reg = new Registry<InitialConfigFactory>("initial configuration");
    register_initials(*reg);
    return reg;
  }();
  return *r;
}

}  // namespace cohesion::run
