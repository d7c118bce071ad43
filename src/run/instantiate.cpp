#include "run/instantiate.hpp"

#include <cmath>
#include <set>
#include <stdexcept>
#include <string>

#include "run/registry.hpp"

namespace cohesion::run {

namespace {

/// The four factory slots of `spec`: everything but the engine.
RunInstance build_slots(const RunSpec& spec, const RunSeeds& seeds) {
  RunInstance inst;
  inst.algorithm = algorithms().get(spec.algorithm.type)(spec.algorithm.params);
  inst.initial = initials().get(spec.initial.type)(spec.n, spec.visibility_radius, seeds.initial,
                                                   spec.initial.params);
  for (std::size_t i = 0; i < inst.initial.size(); ++i) {
    const geom::Vec2 p = inst.initial[i];
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
      throw std::runtime_error("initial \"" + spec.initial.type + "\": position " +
                               std::to_string(i) + " is not finite (" + std::to_string(p.x) +
                               ", " + std::to_string(p.y) + ")");
    }
  }
  inst.scheduler = schedulers().get(spec.scheduler.type)(inst.initial.size(), seeds.scheduler,
                                                         spec.scheduler.params);
  inst.config.error = errors().get(spec.error.type)(spec.error.params);
  return inst;
}

}  // namespace

RunInstance instantiate(const RunSpec& spec) {
  const RunSeeds seeds = seed_streams(spec.seed);
  RunInstance inst = build_slots(spec, seeds);
  inst.config.visibility.radius = spec.visibility_radius;
  inst.config.visibility.open_ball = spec.open_ball;
  inst.config.visibility.multiplicity_detection = spec.multiplicity_detection;
  inst.config.seed = seeds.engine;
  inst.config.record_history = spec.trace.mode == "memory";
  inst.engine = std::make_unique<core::Engine>(inst.initial, *inst.algorithm, *inst.scheduler,
                                               inst.config);
  return inst;
}

void check_factories(const ExperimentSpec& experiment) {
  std::set<std::string> built;  // slot contents (and the n and radius they see)
  for (const ExpandedRun& run : experiment.expand()) {
    Json slots = Json::object();
    slots.set("algorithm", run.spec.algorithm.to_json());
    slots.set("scheduler", run.spec.scheduler.to_json());
    slots.set("error", run.spec.error.to_json());
    slots.set("initial", run.spec.initial.to_json());
    slots.set("n", run.spec.n);
    slots.set("v", run.spec.visibility_radius);
    if (!built.insert(slots.dump()).second) continue;
    try {
      (void)build_slots(run.spec, seed_streams(run.spec.seed));
    } catch (const std::exception& e) {
      throw std::runtime_error("variant " + std::to_string(run.variant) + " (" + run.label +
                               "): " + e.what());
    }
  }
}

}  // namespace cohesion::run
