#include "run/result_cache.hpp"

#include <filesystem>
#include <stdexcept>

#include "run/exit_codes.hpp"
#include "run/journal.hpp"

namespace cohesion::run {

namespace {

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace

Json CacheStats::to_json() const {
  Json j = Json::object();
  j.set("hits", hits);
  j.set("misses", misses);
  j.set("rejects", rejects);
  j.set("inserts", inserts);
  j.set("bypassed", bypassed);
  return j;
}

ResultCache::ResultCache(Options options) : options_(std::move(options)) {
  if (options_.dir.empty()) {
    throw std::runtime_error("result cache needs a directory");
  }
  if (!options_.read_only) {
    std::error_code ec;
    std::filesystem::create_directories(options_.dir, ec);
    if (ec) {
      throw TransientError("cannot create cache directory " + options_.dir + " (" + ec.message() +
                           ")");
    }
  }
}

std::string ResultCache::entry_path(const RunSpec& spec) const {
  return options_.dir + "/" + fingerprint_hex(run_identity(spec)) + ".json";
}

void ResultCache::record_reject(const std::string& path, const std::string& cause) {
  rejects_.fetch_add(1, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(mutex_);
  reject_causes_.push_back(path + ": " + cause);
}

std::optional<RunOutcome> ResultCache::lookup(const ExpandedRun& run) noexcept {
  try {
    if (run.spec.trace.mode == "stream") {
      // A hit would skip writing the run's .cohtrace — the cache must never
      // change what artifacts a batch produces, so stream runs execute.
      bypassed_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    const std::string path = entry_path(run.spec);
    // An absent entry throws, and the catch below counts the miss.
    const std::string content = read_file(path);

    Json doc;
    try {
      doc = Json::parse(content);
    } catch (const std::exception& e) {
      record_reject(path, std::string("not valid JSON — truncated or torn entry (") + e.what() +
                              "); recomputing");
      return std::nullopt;
    }
    if (!doc.is_object() || doc.string_or("format", "") != kFormat) {
      record_reject(path, "missing/unknown format marker (expected \"" + std::string(kFormat) +
                              "\", got \"" + (doc.is_object() ? doc.string_or("format", "") : "") +
                              "\") — foreign or wrong-version entry; recomputing");
      return std::nullopt;
    }
    const std::string expected_id = fingerprint_hex(run_identity(run.spec));
    const std::string found_id = doc.string_or("identity", "");
    if (found_id != expected_id) {
      record_reject(path, "identity mismatch (entry " + found_id + ", this run " + expected_id +
                              ") — misfiled entry; recomputing");
      return std::nullopt;
    }
    const Json* payload = doc.find("outcome");
    if (!payload || !payload->is_object()) {
      record_reject(path, "entry carries no outcome object; recomputing");
      return std::nullopt;
    }
    const std::string expected_sum = fingerprint_hex(fnv1a64(payload->dump()));
    if (doc.string_or("checksum", "") != expected_sum) {
      record_reject(path, "checksum mismatch (entry " + doc.string_or("checksum", "<missing>") +
                              ", payload " + expected_sum + ") — bit rot or torn write; recomputing");
      return std::nullopt;
    }
    RunOutcome out;
    try {
      out.physics_from_json(*payload);
    } catch (const std::exception& e) {
      record_reject(path, std::string("payload is not a run outcome (") + e.what() +
                              "); recomputing");
      return std::nullopt;
    }
    // The grid shell is this run's, not the inserting run's: the same
    // physics may serve any sweep position that resolves to the same spec.
    out.index = run.index;
    out.variant = run.variant;
    out.repeat = run.repeat;
    out.label = run.label;
    out.seed = run.spec.seed;
    hits_.fetch_add(1, std::memory_order_relaxed);
    return out;
  } catch (...) {
    // A sick cache degrades to a miss, never to a failed batch.
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
}

void ResultCache::insert(const ExpandedRun& run, const RunOutcome& outcome) noexcept {
  try {
    if (options_.read_only) return;
    if (!outcome.error.empty() || outcome.skipped) return;

    Json payload = Json::object();
    outcome.physics_to_json(payload);
    Json entry = Json::object();
    entry.set("format", kFormat);
    entry.set("identity", fingerprint_hex(run_identity(run.spec)));
    entry.set("outcome", payload);
    entry.set("checksum", fingerprint_hex(fnv1a64(payload.dump())));

    // Atomic publish (replace_file). Concurrent inserters of one key race
    // benignly — deterministic runs make every contender's bytes
    // identical, so last-rename-wins serves the same entry regardless of
    // interleaving. A throw lands in the catch below: a dropped insert.
    replace_file(entry_path(run.spec), entry.dump() + "\n");
    inserts_.fetch_add(1, std::memory_order_relaxed);
  } catch (...) {
    // Dropped insert: the entry is simply absent next time.
  }
}

CacheStats ResultCache::stats() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.rejects = rejects_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.bypassed = bypassed_.load(std::memory_order_relaxed);
  return s;
}

std::vector<std::string> ResultCache::reject_causes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return reject_causes_;
}

}  // namespace cohesion::run
