#include "run/spec.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>
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

FactorySpec FactorySpec::from_json(const Json& j, const std::string& fallback_type) {
  FactorySpec f;
  if (j.is_string()) {
    // Shorthand: "fsync" == {"type": "fsync"}.
    f.type = j.as_string();
    return f;
  }
  f.type = j.string_or("type", fallback_type);
  if (const Json* p = j.find("params")) {
    if (!p->is_object()) throw std::runtime_error("FactorySpec params must be an object");
    f.params = *p;
  }
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

TraceSpec TraceSpec::from_json(const Json& j, std::string_view path) {
  TraceSpec t;
  if (j.is_string()) {
    // Shorthand: "stream" == {"mode": "stream"}.
    t.mode = j.as_string();
  } else if (j.is_object()) {
    reject_unknown_keys(j, "RunSpec", path, {"mode", "path", "flush_every", "index_every"});
    t.mode = j.string_or("mode", t.mode);
    t.path = j.string_or("path", t.path);
    t.flush_every = static_cast<std::size_t>(j.uint_or("flush_every", t.flush_every));
    t.index_every = static_cast<std::size_t>(j.uint_or("index_every", t.index_every));
  } else {
    throw std::runtime_error("trace must be a JSON object or mode string");
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

namespace {

void require_object(const Json& block, const char* key) {
  if (!block.is_object()) {
    throw std::runtime_error(std::string("RunSpec: ") + key + " must be a JSON object");
  }
}

}  // namespace

RunSpec RunSpec::from_json(const Json& j, std::string_view path) {
  if (!j.is_object()) throw std::runtime_error("RunSpec must be a JSON object");
  const std::string at(path);
  // Every key to_json() emits is known, so checkpoint, cache and shard
  // round trips parse; anything else (a typo like "stopp") is an error.
  reject_unknown_keys(j, "RunSpec", at,
                      {"name", "n", "seed", "algorithm", "scheduler", "error", "initial",
                       "visibility", "use_spatial_index", "incremental_index", "soa_kernel",
                       "stop", "trace"});
  RunSpec s;
  s.name = j.string_or("name", s.name);
  s.n = static_cast<std::size_t>(j.uint_or("n", s.n));
  s.seed = j.uint_or("seed", s.seed);
  if (const Json* v = j.find("algorithm")) s.algorithm = FactorySpec::from_json(*v, "kknps");
  if (const Json* v = j.find("scheduler")) s.scheduler = FactorySpec::from_json(*v, "kasync");
  if (const Json* v = j.find("error")) s.error = FactorySpec::from_json(*v, "noisy");
  if (const Json* v = j.find("initial")) s.initial = FactorySpec::from_json(*v, "random");
  if (const Json* vis = j.find("visibility")) {
    require_object(*vis, "visibility");
    reject_unknown_keys(*vis, "RunSpec", at + "visibility.",
                        {"radius", "open_ball", "multiplicity"});
    s.visibility_radius = vis->number_or("radius", s.visibility_radius);
    s.open_ball = vis->bool_or("open_ball", s.open_ball);
    s.multiplicity_detection = vis->bool_or("multiplicity", s.multiplicity_detection);
    if (!(std::isfinite(s.visibility_radius) && s.visibility_radius > 0.0)) {
      char got[32];
      std::snprintf(got, sizeof got, "%g", s.visibility_radius);
      throw std::runtime_error("RunSpec: " + at +
                               "visibility.radius must be a positive finite number (got " + got +
                               ")");
    }
  }
  // Retired engine switches: each accepts a missing key or the value the
  // engine still implements, and names itself when given the other one.
  struct Retired {
    const char* key;
    bool surviving;
    const char* why;
  };
  constexpr const char* kOneFeed =
      "the engine has one snapshot feed, and the reference paths false used to select live "
      "only in the test oracle tests/oracles/engine_oracle.hpp";
  for (const Retired& r : {Retired{"use_spatial_index", true, kOneFeed},
                           Retired{"incremental_index", true, kOneFeed},
                           Retired{"soa_kernel", false,
                                   "the engine has one snapshot kernel, the scalar filter every "
                                   "run already used by default"}}) {
    if (j.bool_or(r.key, r.surviving) != r.surviving) {
      const std::string surviving = r.surviving ? "true" : "false";
      const std::string retired = r.surviving ? "false" : "true";
      throw std::runtime_error("RunSpec: \"" + at + r.key + "\": " + retired +
                               " is no longer supported: " + r.why +
                               " (omit the key or set it to " + surviving + ")");
    }
  }
  if (const Json* st = j.find("stop")) {
    require_object(*st, "stop");
    reject_unknown_keys(*st, "RunSpec", at + "stop.",
                        {"epsilon", "max_activations", "check_every", "max_time"});
    s.stop.epsilon = st->number_or("epsilon", s.stop.epsilon);
    s.stop.max_activations =
        static_cast<std::size_t>(st->uint_or("max_activations", s.stop.max_activations));
    s.stop.check_every = static_cast<std::size_t>(st->uint_or("check_every", s.stop.check_every));
    s.stop.max_time = st->number_or("max_time", s.stop.max_time);
  }
  if (const Json* t = j.find("trace")) s.trace = TraceSpec::from_json(*t, at + "trace.");
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

EarlyStop EarlyStop::from_json(const Json& j) {
  if (!j.is_object()) throw std::runtime_error("early_stop must be a JSON object");
  reject_unknown_keys(j, "ExperimentSpec", "early_stop.", {"window", "epsilon", "metric"});
  EarlyStop e;
  e.window = static_cast<std::size_t>(j.uint_or("window", e.window));
  e.epsilon = j.number_or("epsilon", e.epsilon);
  e.metric = j.string_or("metric", e.metric);
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
      run.spec.name = name + "/" + label + (reps > 1 ? "#" + std::to_string(r) : "");
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
  if (!j.is_object()) throw std::runtime_error("ExperimentSpec must be a JSON object");
  reject_unknown_keys(j, "ExperimentSpec", "", {"name", "base", "repeats", "early_stop", "sweep"});
  ExperimentSpec e;
  e.name = j.string_or("name", e.name);
  e.base = RunSpec::from_json(j.at("base"), "base.");
  e.repeats = static_cast<std::size_t>(j.uint_or("repeats", e.repeats));
  if (const Json* es = j.find("early_stop")) e.early_stop = EarlyStop::from_json(*es);
  if (const Json* sweep = j.find("sweep")) {
    for (const Json& a : sweep->items()) {
      const std::string at = "sweep[" + std::to_string(e.axes.size()) + "].";
      if (!a.is_object()) {
        throw std::runtime_error("ExperimentSpec: " + at.substr(0, at.size() - 1) +
                                 " must be a JSON object");
      }
      reject_unknown_keys(a, "ExperimentSpec", at, {"path", "values"});
      SweepAxis axis;
      axis.path = a.at("path").as_string();
      axis.values = a.at("values").items();
      e.axes.push_back(std::move(axis));
    }
  }
  return e;
}

}  // namespace cohesion::run
