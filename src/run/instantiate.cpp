#include "run/instantiate.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "run/registry.hpp"

namespace cohesion::run {

RunInstance instantiate(const RunSpec& spec) {
  const RunSeeds seeds = seed_streams(spec.seed);
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
  inst.config.visibility.radius = spec.visibility_radius;
  inst.config.visibility.open_ball = spec.open_ball;
  inst.config.visibility.multiplicity_detection = spec.multiplicity_detection;
  inst.config.error = errors().get(spec.error.type)(spec.error.params);
  inst.config.seed = seeds.engine;
  inst.config.record_history = spec.trace.mode == "memory";
  inst.engine = std::make_unique<core::Engine>(inst.initial, *inst.algorithm, *inst.scheduler,
                                               inst.config);
  return inst;
}

}  // namespace cohesion::run
