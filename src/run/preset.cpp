#include "run/preset.hpp"

#include <filesystem>
#include <stdexcept>
#include <vector>

#include "run/exit_codes.hpp"

namespace cohesion::run {

namespace fs = std::filesystem;

namespace {

/// The chain of files currently being resolved, outermost first — the
/// breadcrumb every error message carries, and the cycle detector (a base
/// whose canonical path is already on the chain closes a loop).
struct Chain {
  std::vector<std::string> display;   ///< paths as written, for messages
  std::vector<std::string> canonical; ///< normalized, for cycle detection

  [[nodiscard]] std::string text() const {
    std::string out;
    for (const std::string& p : display) {
      if (!out.empty()) out += " -> ";
      out += p;
    }
    return out;
  }
};

[[noreturn]] void fail(const Chain& chain, const std::string& what) {
  throw std::runtime_error("preset chain " + chain.text() + ": " + what);
}

/// Normalize without requiring the file to exist (weakly_canonical walks
/// symlinks where it can, lexical-normalizes the rest) so "a.json" and
/// "./sub/../a.json" close the same cycle.
std::string canonical_key(const fs::path& p) {
  std::error_code ec;
  const fs::path c = fs::weakly_canonical(p, ec);
  return (ec ? p.lexically_normal() : c).string();
}

Json load_resolved(const fs::path& path, Chain& chain);

Json resolve_in_chain(Json doc, const std::string& source_dir, Chain& chain) {
  if (!doc.is_object()) {
    if (chain.display.empty()) return doc;  // bare non-object: not ours to judge
    fail(chain, "document is not a JSON object");
  }
  const Json* ext = doc.find("extends");
  if (!ext) return doc;

  std::vector<std::string> bases;
  if (ext->is_string()) {
    bases.push_back(ext->as_string());
  } else if (ext->is_array()) {
    for (const Json& e : ext->items()) {
      if (!e.is_string()) fail(chain, "\"extends\" array entries must be file-path strings");
      bases.push_back(e.as_string());
    }
  } else {
    fail(chain, "\"extends\" must be a file-path string or an array of them");
  }

  Json merged = Json::object();
  for (const std::string& base : bases) {
    fs::path base_path(base);
    if (base_path.is_relative() && !source_dir.empty()) base_path = fs::path(source_dir) / base_path;
    const std::string key = canonical_key(base_path);
    for (const std::string& seen : chain.canonical) {
      if (seen == key) {
        Chain cycle = chain;
        cycle.display.push_back(base);
        fail(cycle, "\"extends\" cycle");
      }
    }
    chain.display.push_back(base);
    chain.canonical.push_back(key);
    deep_merge(merged, load_resolved(base_path, chain));
    chain.display.pop_back();
    chain.canonical.pop_back();
  }

  // The referring document's own keys win; the consumed "extends" key must
  // not leak into the resolved spec (it would perturb every fingerprint).
  Json own = Json::object();
  for (const auto& [k, v] : doc.entries()) {
    if (k != "extends") own.set(k, v);
  }
  deep_merge(merged, own);
  return merged;
}

Json load_resolved(const fs::path& path, Chain& chain) {
  Json doc;
  try {
    doc = Json::parse_file(path.string());
  } catch (const TransientError&) {
    // A missing base is a wrong "extends", not a file still landing.
    fail(chain, "cannot open \"" + path.string() + "\"");
  } catch (const std::exception& e) {
    fail(chain, "\"" + path.string() + "\" is not valid JSON (" + std::string(e.what()) + ")");
  }
  return resolve_in_chain(std::move(doc), path.parent_path().string(), chain);
}

}  // namespace

void deep_merge(Json& base, const Json& overlay) {
  if (!base.is_object() || !overlay.is_object()) {
    base = overlay;
    return;
  }
  for (const auto& [k, v] : overlay.entries()) {
    Json* slot = base.find(k);
    if (slot && slot->is_object() && v.is_object()) {
      deep_merge(*slot, v);
    } else {
      base.set(k, v);
    }
  }
}

Json resolve_extends(Json doc, const std::string& source_dir) {
  Chain chain;
  return resolve_in_chain(std::move(doc), source_dir, chain);
}

Json load_spec_file(const std::string& path) {
  Chain chain;
  chain.display.push_back(path);
  chain.canonical.push_back(canonical_key(path));
  // An unreadable top-level file is transient (it may not have been
  // copied yet); parse errors here keep their plain form, chain errors
  // begin once an "extends" is followed.
  Json doc = Json::parse_file(path);
  return resolve_in_chain(std::move(doc), fs::path(path).parent_path().string(), chain);
}

ExperimentSpec load_experiment_file(const std::string& path) {
  // Preset layering ("extends") resolves here — before expansion, and
  // therefore before any fingerprint (checkpoint or cache) is computed.
  const Json doc = load_spec_file(path);
  if (doc.contains("base")) return ExperimentSpec::from_json(doc);
  ExperimentSpec experiment;
  experiment.base = RunSpec::from_json(doc);
  experiment.name = experiment.base.name;
  return experiment;
}

}  // namespace cohesion::run
