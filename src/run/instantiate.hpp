// Resolve a RunSpec into live objects: registry lookups for every slot,
// seed-stream derivation, and an Engine wired to owned algorithm/scheduler
// instances. The smallest way to go from "one JSON artifact" to "a running
// simulation" — BatchRunner, the CLI and the examples all sit on this.
#pragma once

#include <memory>
#include <vector>

#include "core/engine.hpp"
#include "run/spec.hpp"

namespace cohesion::run {

/// Owns everything a run needs. The engine holds references into
/// `algorithm` and `scheduler`, so the instance must outlive it — keep the
/// struct alive for as long as the engine is used.
struct RunInstance {
  std::unique_ptr<core::Algorithm> algorithm;
  std::unique_ptr<core::Scheduler> scheduler;
  std::vector<geom::Vec2> initial;
  core::EngineConfig config;
  std::unique_ptr<core::Engine> engine;
};

/// Build a runnable instance. Throws std::runtime_error on unknown registry
/// keys or malformed params. The initial-configuration factory may override
/// the robot count (e.g. spiral); the scheduler sees the actual count.
RunInstance instantiate(const RunSpec& spec);

/// Preflight for a whole sweep: construct and discard the four factory
/// slots (algorithm, scheduler, error model, initial configuration) of each
/// variant with distinct slot content, so a bad `params` in any variant
/// throws before run 0 starts, naming the variant index and label. Builds
/// no engine.
void check_factories(const ExperimentSpec& experiment);

}  // namespace cohesion::run
