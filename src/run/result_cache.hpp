// Persistent, content-addressed run-outcome cache — OrcaSlicer-style step
// invalidation applied to experiment grids: a run whose inputs (resolved
// spec, seed included) are unchanged is never recomputed; only edited
// variants of a sweep re-run.
//
// Keying. Entries are addressed by run::run_identity(spec) — the FNV-1a 64
// fingerprint of the resolved RunSpec JSON with the trace block (capture
// config is not run identity) and the name (labels/repeat suffixes are
// display identity) excluded. Presets resolve before fingerprinting, so a
// spec refactored into "extends" layers that resolves to the same document
// hits. Two different sweeps that resolve a variant to the same spec
// deduplicate through one cache directory.
//
// Layout. One entry per file, DIR/<16-hex-identity>.json:
//
//   {"format": "cohesion-result-cache/1",
//    "identity": "<16 hex>",
//    "outcome":  { ...RunOutcome::physics_to_json(), n … custom... },
//    "checksum": "<16 hex FNV-1a of the outcome object's dump>"}
//
// The payload stores only the physics of the run (n, converged, cohesive,
// diameters, rounds, activations, worst_stretch, custom) — never the grid
// position (index/variant/repeat/label/seed come from the ExpandedRun a
// hit is served to), never wall-clock, never errors or skips, and never
// stream-trace paths (a stream-mode run must actually write its trace, so
// it bypasses lookup — it still inserts, its physics are mode-independent
// by architecture contract 10).
//
// Architecture contract (#11, docs/architecture.md): cached outcome ≡
// recomputed outcome, or the entry is rejected as corrupt with a named
// cause and the run recomputed. The Json dump/parse round trip is exact
// (64-bit ints, shortest round-trippable doubles), so a report assembled
// from hits is byte-identical to the cold run's --no-timing report; any
// entry failing validation (foreign format, version skew, identity or
// checksum mismatch, truncation, bit flips, malformed payload) is a
// *reject* — counted, its cause recorded, never silently served.
//
// Concurrency. Inserts are atomic (run::replace_file): the entry is
// written to a unique temp file in the cache directory, fsync'd, then
// rename(2)'d into place — readers see either no entry or a complete one,
// and racing writers of the same key produce identical bytes (outcomes are
// deterministic), so last-rename-wins is harmless. One ResultCache may be shared by every worker
// thread of a BatchRunner, and one directory by any number of processes
// (the sharded-sweep e2e test runs 3 concurrent shard workers against one
// cache). Lookup/insert never throw — a sick cache degrades to misses, a
// failed insert is dropped; the cache is an accelerator, not a journal.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "run/batch_runner.hpp"
#include "run/spec.hpp"

namespace cohesion::run {

/// Traffic counters, all monotone over one ResultCache's lifetime. A run
/// is counted exactly once per lookup/insert attempt: hit, miss or reject
/// on the read side (reject means an entry existed but failed validation —
/// the run recomputes, like a miss, but loudly); insert on the write side.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t rejects = 0;    ///< corrupt entries refused (cause recorded)
  std::uint64_t inserts = 0;
  std::uint64_t bypassed = 0;   ///< stream-mode runs that skipped lookup

  [[nodiscard]] Json to_json() const;
};

class ResultCache {
 public:
  struct Options {
    std::string dir;         ///< entry directory; created if absent
    bool read_only = false;  ///< serve hits but never write entries
  };

  /// Creates the cache directory (unless read_only). Throws TransientError
  /// when the directory cannot be created — that is an environment
  /// problem, not a spec problem.
  explicit ResultCache(Options options);

  /// Content-addressed lookup for one expanded run. On a hit the returned
  /// outcome carries the run's own grid fields (index/variant/repeat/
  /// label/seed) around the cached physics — ready to drop into the report
  /// slot. nullopt on miss, reject (cause recorded, see reject_causes) and
  /// for stream-mode runs (bypassed). Never throws.
  [[nodiscard]] std::optional<RunOutcome> lookup(const ExpandedRun& run) noexcept;

  /// Store one completed outcome (atomically; see file header). Errored
  /// and skipped outcomes are refused here — an error may be environmental
  /// (and a skip carries no report), so neither is reproducible physics —
  /// and overwriting an existing key rewrites the identical bytes. No-op
  /// in read_only mode. Never throws; a failed write is dropped (the next
  /// run of the same spec simply misses and re-inserts).
  void insert(const ExpandedRun& run, const RunOutcome& outcome) noexcept;

  [[nodiscard]] CacheStats stats() const;
  /// One human-readable line per rejected entry, in rejection order:
  /// "<path>: <named cause>". Drained by the CLI onto stderr.
  [[nodiscard]] std::vector<std::string> reject_causes() const;

  /// Where the entry for `spec` lives — exposed for the adversarial tests
  /// that truncate/flip/forge entries on disk.
  [[nodiscard]] std::string entry_path(const RunSpec& spec) const;

  static constexpr const char* kFormat = "cohesion-result-cache/1";

 private:
  void record_reject(const std::string& path, const std::string& cause);

  Options options_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> rejects_{0};
  std::atomic<std::uint64_t> inserts_{0};
  std::atomic<std::uint64_t> bypassed_{0};
  mutable std::mutex mutex_;
  std::vector<std::string> reject_causes_;  ///< guarded by mutex_
};

}  // namespace cohesion::run
