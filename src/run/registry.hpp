// String-keyed factory registries — the binding between declarative specs
// and concrete library types. Four registries cover the four spec slots:
//
//   algorithms()  key -> core::Algorithm        (kknps, kknps3d, ando,
//                                                katreniak, cog, gcm, null,
//                                                lens_midpoint)
//   schedulers()  key -> core::Scheduler        (fsync, ssync, kasync,
//                                                async, knesta, scripted)
//   errors()      key -> core::ErrorModel       (exact, noisy)
//   initials()    key -> initial configuration  (line, grid, circle, random,
//                                                two_cluster, spiral)
//
// Built-ins are registered on first access; user code may add factories
// (benches register bespoke initial configurations this way) — register
// before fanning out a batch, lookups are unsynchronized reads.
// Unknown keys throw std::runtime_error listing the registered keys.
//
// Param schemas are documented per factory in docs/experiments.md; every
// factory tolerates an empty params object (library defaults apply) and
// reads it through run::Fields, so any key it does not read is rejected.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/algorithm.hpp"
#include "core/error_model.hpp"
#include "core/scheduler.hpp"
#include "geometry/vec2.hpp"
#include "run/json.hpp"

namespace cohesion::run {

/// A string-keyed factory table. Factory is any std::function; keys are
/// unique (re-registration replaces, enabling test doubles).
template <typename Factory>
class Registry {
 public:
  explicit Registry(std::string kind) : kind_(std::move(kind)) {}

  void add(const std::string& key, Factory factory) {
    for (auto& [k, f] : entries_) {
      if (k == key) {
        f = std::move(factory);
        return;
      }
    }
    entries_.emplace_back(key, std::move(factory));
  }

  [[nodiscard]] const Factory& get(const std::string& key) const {
    for (const auto& [k, f] : entries_) {
      if (k == key) return f;
    }
    std::string known;
    for (const auto& [k, f] : entries_) {
      if (!known.empty()) known += ", ";
      known += k;
    }
    throw std::runtime_error("unknown " + kind_ + " \"" + key + "\" (registered: " + known + ")");
  }

  [[nodiscard]] bool contains(const std::string& key) const {
    for (const auto& [k, f] : entries_) {
      if (k == key) return true;
    }
    return false;
  }

  [[nodiscard]] std::vector<std::string> keys() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& [k, f] : entries_) out.push_back(k);
    return out;
  }

 private:
  std::string kind_;
  std::vector<std::pair<std::string, Factory>> entries_;  // insertion order
};

/// Algorithms are stateless/shared; params fully determine behavior.
using AlgorithmFactory = std::function<std::unique_ptr<core::Algorithm>(const Json& params)>;
/// Schedulers are per-run and seeded; `seed` is the derived scheduler
/// stream (params "seed" may pin it instead).
using SchedulerFactory = std::function<std::unique_ptr<core::Scheduler>(
    std::size_t robot_count, std::uint64_t seed, const Json& params)>;
using ErrorModelFactory = std::function<core::ErrorModel(const Json& params)>;
/// `v` is the visibility radius (spacings scale with it), `seed` the
/// derived initial stream. May return a different robot count than
/// requested (e.g. spiral); callers read back .size().
using InitialConfigFactory = std::function<std::vector<geom::Vec2>(
    std::size_t n, double v, std::uint64_t seed, const Json& params)>;

Registry<AlgorithmFactory>& algorithms();
Registry<SchedulerFactory>& schedulers();
Registry<ErrorModelFactory>& errors();
Registry<InitialConfigFactory>& initials();

}  // namespace cohesion::run
