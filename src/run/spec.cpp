#include "run/spec.hpp"

#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace cohesion::run {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

RunSeeds seed_streams(std::uint64_t run_seed) {
  RunSeeds s;
  s.run = run_seed;
  s.engine = splitmix64(run_seed);
  s.scheduler = splitmix64(run_seed);
  s.initial = splitmix64(run_seed);
  return s;
}

RunSeeds derive_seeds(std::uint64_t experiment_seed, std::uint64_t run_index) {
  // Decorrelate the (seed, index) pair before streaming: two experiments
  // with nearby seeds must not share any per-run seed streams.
  std::uint64_t state = experiment_seed ^ (0xA0761D6478BD642Full * (run_index + 1));
  return seed_streams(splitmix64(state));
}

Json FactorySpec::to_json() const {
  Json j = Json::object();
  j.set("type", type);
  if (!params.entries().empty()) j.set("params", params);
  return j;
}

FactorySpec FactorySpec::read(Fields& spec, std::string_view key, std::string_view fallback_type) {
  FactorySpec f;
  if (const Json* v = spec.find(key); v && v->is_string()) {
    // Shorthand: "fsync" == {"type": "fsync"}.
    f.type = v->as_string();
    return f;
  }
  Fields slot = spec.object(key);
  f.type = slot.string("type", fallback_type);
  f.params = slot.object("params").json();  // its keys are the factory's to check
  slot.done();
  return f;
}

Json TraceSpec::to_json() const {
  Json j = Json::object();
  j.set("mode", mode);
  if (!path.empty()) j.set("path", path);
  if (flush_every != 4096) j.set("flush_every", flush_every);
  if (index_every != 65536) j.set("index_every", index_every);
  return j;
}

TraceSpec TraceSpec::read(Fields& spec) {
  TraceSpec t;
  if (const Json* v = spec.find("trace"); v && v->is_string()) {
    // Shorthand: "stream" == {"mode": "stream"}.
    t.mode = v->as_string();
  } else {
    Fields block = spec.object("trace");
    t.mode = block.string("mode", t.mode);
    t.path = block.string("path", t.path);
    t.flush_every = block.size("flush_every", t.flush_every);
    t.index_every = block.size("index_every", t.index_every);
    block.done();
  }
  if (t.mode != "memory" && t.mode != "stream" && t.mode != "off") {
    throw std::runtime_error("trace.mode must be \"memory\", \"stream\" or \"off\" (got \"" +
                             t.mode + "\")");
  }
  return t;
}

Json RunSpec::to_json() const {
  Json j = Json::object();
  j.set("name", name);
  j.set("n", n);
  j.set("seed", seed);
  j.set("algorithm", algorithm.to_json());
  j.set("scheduler", scheduler.to_json());
  j.set("error", error.to_json());
  j.set("initial", initial.to_json());
  Json vis = Json::object();
  vis.set("radius", visibility_radius);
  vis.set("open_ball", open_ball);
  vis.set("multiplicity", multiplicity_detection);
  j.set("visibility", vis);
  // Retired engine switches, emitted as constants: spec bytes, run
  // identities and cache keys have always hashed them.
  j.set("use_spatial_index", true);
  j.set("incremental_index", true);
  Json stop_j = Json::object();
  stop_j.set("epsilon", stop.epsilon);
  stop_j.set("max_activations", stop.max_activations);
  stop_j.set("check_every", stop.check_every);
  stop_j.set("max_time", stop.max_time);
  j.set("stop", stop_j);
  // Only a non-default block is echoed: existing memory-mode specs keep
  // their exact bytes (and thus their checkpoint fingerprints).
  if (!trace.is_default()) j.set("trace", trace.to_json());
  return j;
}

RunSpec RunSpec::from_json(const Json& j, std::string_view path) {
  // Every key to_json() emits is read, so checkpoint, cache and shard round
  // trips parse; anything else (a typo like "stopp") is an error.
  Fields f(j, "RunSpec", path);
  RunSpec s;
  s.name = f.string("name", s.name);
  s.n = f.size("n", s.n);
  s.seed = f.uint("seed", s.seed);
  s.algorithm = FactorySpec::read(f, "algorithm", "kknps");
  s.scheduler = FactorySpec::read(f, "scheduler", "kasync");
  s.error = FactorySpec::read(f, "error", "noisy");
  s.initial = FactorySpec::read(f, "initial", "random");
  Fields vis = f.object("visibility");
  s.visibility_radius = vis.number("radius", s.visibility_radius);
  s.open_ball = vis.flag("open_ball", s.open_ball);
  s.multiplicity_detection = vis.flag("multiplicity", s.multiplicity_detection);
  vis.done();
  if (!(std::isfinite(s.visibility_radius) && s.visibility_radius > 0.0)) {
    vis.fail("radius", "must be a positive finite number");
  }
  // Retired engine switches: each accepts a missing key or the value the
  // engine still implements.
  constexpr std::string_view kOneFeed =
      "the engine has one snapshot feed, and the reference paths false used to select live "
      "only in the test oracle tests/oracles/engine_oracle.hpp";
  f.retired("use_spatial_index", true, kOneFeed);
  f.retired("incremental_index", true, kOneFeed);
  f.retired("soa_kernel", false,
            "the engine has one snapshot kernel, the scalar filter every run already used by "
            "default");
  Fields stop = f.object("stop");
  s.stop.epsilon = stop.number("epsilon", s.stop.epsilon);
  s.stop.max_activations = stop.size("max_activations", s.stop.max_activations);
  s.stop.check_every = stop.size("check_every", s.stop.check_every);
  s.stop.max_time = stop.number("max_time", s.stop.max_time);
  stop.done();
  s.trace = TraceSpec::read(f);
  f.done();
  return s;
}

namespace {

std::uint64_t fnv1a64(const std::string& doc) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64
  for (const char c : doc) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

std::uint64_t spec_fingerprint(const RunSpec& spec) {
  RunSpec hashed = spec;
  hashed.trace = TraceSpec{};  // capture config is not part of the run identity
  return fnv1a64(hashed.to_json().dump());
}

std::uint64_t run_identity(const RunSpec& spec) {
  RunSpec hashed = spec;
  hashed.trace = TraceSpec{};  // capture config never changes the dynamics
  hashed.name = RunSpec{}.name;  // labels/repeat suffixes are display identity
  return fnv1a64(hashed.to_json().dump());
}

std::string fingerprint_hex(std::uint64_t fp) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (std::size_t i = 16; i-- > 0; fp >>= 4) out[i] = digits[fp & 0xF];
  return out;
}

Json EarlyStop::to_json() const {
  Json j = Json::object();
  j.set("window", window);
  j.set("epsilon", epsilon);
  j.set("metric", metric);
  return j;
}

EarlyStop EarlyStop::read(Fields block) {
  EarlyStop e;
  e.window = block.size("window", e.window);
  e.epsilon = block.number("epsilon", e.epsilon);
  e.metric = block.string("metric", e.metric);
  block.done();
  return e;
}

void apply_override(Json& doc, const std::string& path, const Json& value) {
  if (path.empty()) {
    if (!value.is_object()) {
      throw std::runtime_error("sweep axis with empty path requires object values");
    }
    for (const auto& [k, v] : value.entries()) {
      if (k == "label") continue;  // display-only
      Json* slot = doc.find(k);
      if (slot && slot->is_object() && v.is_object()) {
        apply_override(*slot, "", v);
      } else {
        doc.set(k, v);
      }
    }
    return;
  }
  const std::size_t dot = path.find('.');
  const std::string head = path.substr(0, dot);
  if (head.empty()) throw std::runtime_error("empty sweep-path segment in \"" + path + "\"");
  if (!doc.is_object()) throw std::runtime_error("sweep path \"" + path + "\" descends into a non-object");
  if (dot == std::string::npos) {
    doc.set(head, value);
    return;
  }
  Json* child = doc.find(head);
  if (!child) {
    doc.set(head, Json::object());
    child = doc.find(head);
  }
  apply_override(*child, path.substr(dot + 1), value);
}

namespace {

std::string value_label(const Json& v) {
  if (const Json* l = v.find("label")) return l->as_string();
  if (v.is_string()) return v.as_string();
  return v.dump();
}

std::string axis_label(const SweepAxis& axis, const Json& v) {
  if (axis.path.empty()) return value_label(v);
  // Last path segment is usually descriptive enough ("k", "n", ...).
  const std::size_t dot = axis.path.rfind('.');
  const std::string leaf = dot == std::string::npos ? axis.path : axis.path.substr(dot + 1);
  return leaf + "=" + value_label(v);
}

void replace_all(std::string& s, const std::string& token, const std::string& value) {
  for (std::size_t at = s.find(token); at != std::string::npos; at = s.find(token, at)) {
    s.replace(at, token.size(), value);
    at += value.size();
  }
}

/// Resolve a TraceSpec path template for one expanded run. {name} is
/// sanitized ('/' and '#' from sweep labels would fragment the filename).
std::string substitute_trace_path(std::string templ, const ExpandedRun& run) {
  std::string safe_name = run.spec.name;
  for (char& c : safe_name) {
    if (c == '/' || c == '#') c = '_';
  }
  replace_all(templ, "{name}", safe_name);
  replace_all(templ, "{index}", std::to_string(run.index));
  replace_all(templ, "{variant}", std::to_string(run.variant));
  replace_all(templ, "{repeat}", std::to_string(run.repeat));
  replace_all(templ, "{seed}", std::to_string(run.spec.seed));
  return templ;
}

}  // namespace

std::size_t ExperimentSpec::variant_count() const {
  std::size_t count = 1;
  for (std::size_t a = 0; a < axes.size(); ++a) {
    const auto error = [&](const std::string& what) {
      return std::runtime_error("ExperimentSpec: sweep[" + std::to_string(a) + "] (\"" +
                                axes[a].path + "\") " + what);
    };
    if (axes[a].values.empty()) throw error("has no values");
    if (__builtin_mul_overflow(count, axes[a].values.size(), &count)) {
      throw error("overflows the variant count: the grid has more than " +
                  std::to_string(SIZE_MAX) + " points");
    }
  }
  return count;
}

std::size_t ExperimentSpec::run_count() const {
  const std::size_t variants = variant_count();
  std::size_t runs = 0;
  if (__builtin_mul_overflow(variants, std::max<std::size_t>(repeats, 1), &runs)) {
    throw std::runtime_error("ExperimentSpec: repeats = " + std::to_string(repeats) + " over " +
                             std::to_string(variants) + " variants overflows the run count");
  }
  return runs;
}

std::vector<ExpandedRun> ExperimentSpec::expand() const {
  const std::size_t total = run_count();
  const std::size_t variants = variant_count();
  const std::size_t reps = std::max<std::size_t>(repeats, 1);
  const Json base_json = base.to_json();

  std::vector<ExpandedRun> out;
  try {
    out.reserve(total);
  } catch (const std::exception&) {  // std::bad_alloc or std::length_error
    throw std::runtime_error("ExperimentSpec: the sweep expands to " + std::to_string(total) +
                             " runs, more than this process can hold");
  }
  std::vector<std::size_t> odometer(axes.size(), 0);
  for (std::size_t v = 0; v < variants; ++v) {
    Json doc = base_json;
    std::string label;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      const Json& value = axes[a].values[odometer[a]];
      apply_override(doc, axes[a].path, value);
      if (!label.empty()) label += ",";
      label += axis_label(axes[a], value);
    }
    if (label.empty()) label = base.name;
    RunSpec resolved = RunSpec::from_json(doc);
    // The JSON round trip cannot carry the programmatic stop predicate.
    resolved.stop.predicate = base.stop.predicate;
    for (std::size_t r = 0; r < reps; ++r) {
      ExpandedRun run;
      run.spec = resolved;
      run.index = v * reps + r;
      run.variant = v;
      run.repeat = r;
      run.label = label;
      run.spec.name = name + "/" + label;
      if (reps > 1) run.spec.name.append("#").append(std::to_string(r));
      // A sweep axis may pin the seed itself (resolved.seed then differs
      // from the base); derivation applies only to unpinned variants.
      if (resolved.seed == base.seed) {
        run.spec.seed = derive_seeds(base.seed, run.index).run;
      }
      if (!run.spec.trace.path.empty()) {
        run.spec.trace.path = substitute_trace_path(run.spec.trace.path, run);
      }
      out.push_back(std::move(run));
    }
    // Advance the odometer, last axis fastest (so the first axis is the
    // outermost loop, matching reading order of the JSON).
    for (std::size_t a = axes.size(); a-- > 0;) {
      if (++odometer[a] < axes[a].values.size()) break;
      odometer[a] = 0;
    }
  }
  return out;
}

std::vector<ExpandedRun> ExperimentSpec::expand_shard(std::size_t shard_index,
                                                      std::size_t shard_count) const {
  if (shard_count == 0) throw std::runtime_error("shard count must be >= 1");
  if (shard_index >= shard_count) {
    throw std::runtime_error("shard index " + std::to_string(shard_index) +
                             " out of range for " + std::to_string(shard_count) + " shards");
  }
  std::vector<ExpandedRun> all = expand();
  std::vector<ExpandedRun> out;
  out.reserve(all.size() / shard_count + 1);
  for (ExpandedRun& run : all) {
    if (run.variant % shard_count == shard_index) out.push_back(std::move(run));
  }
  return out;
}

Json ExperimentSpec::to_json() const {
  Json j = Json::object();
  j.set("name", name);
  j.set("base", base.to_json());
  j.set("repeats", repeats);
  if (early_stop.enabled()) j.set("early_stop", early_stop.to_json());
  if (!axes.empty()) {
    JsonArray arr;
    for (const SweepAxis& axis : axes) {
      Json a = Json::object();
      a.set("path", axis.path);
      a.set("values", Json(JsonArray(axis.values)));
      arr.push_back(std::move(a));
    }
    j.set("sweep", Json(std::move(arr)));
  }
  return j;
}

ExperimentSpec ExperimentSpec::from_json(const Json& j) {
  Fields f(j, "ExperimentSpec");
  ExperimentSpec e;
  e.name = f.string("name", e.name);
  const Json& base = f.value("base");
  e.repeats = f.size("repeats", e.repeats);
  e.early_stop = EarlyStop::read(f.object("early_stop"));
  const std::size_t axes = f.find("sweep") ? f.array("sweep").size() : 0;
  for (std::size_t a = 0; a < axes; ++a) {
    Fields axis = f.object("sweep", a);
    e.axes.push_back({.path = axis.string("path"), .values = axis.array("values")});
    axis.done();
  }
  f.done();  // first, so an absent base is reported as missing
  e.base = RunSpec::from_json(base, "base.");
  return e;
}

}  // namespace cohesion::run
