// Declarative run descriptions: a RunSpec names every ingredient of one
// simulation (algorithm, scheduler, error model, initial configuration,
// visibility, stop rule, seed) by registry key + JSON params, and an
// ExperimentSpec turns a RunSpec into a whole sweep — a cartesian grid of
// parameter overrides times a repeat count — in one JSON artifact.
//
// Seed derivation (the rule that makes batches deterministic regardless of
// worker-thread count): every expanded run gets
//
//   run_seed        = mix(experiment_seed, run_index)        (splitmix64)
//   engine_seed     = stream(run_seed, 0)
//   scheduler_seed  = stream(run_seed, 1)
//   initial_seed    = stream(run_seed, 2)
//
// where run_index enumerates the grid in document order (variants outer,
// repeats inner). Seeds depend only on the spec and the run's position in
// the grid, never on scheduling of the worker pool. A scheduler/initial
// params object may pin "seed" explicitly, which wins over derivation.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/stop_condition.hpp"
#include "run/json.hpp"

namespace cohesion::run {

/// SplitMix64 step — the standard 64-bit mixer (Steele et al.), used for
/// all seed derivation.
std::uint64_t splitmix64(std::uint64_t& state);

/// Seeds for one run, derived per the rule above.
struct RunSeeds {
  std::uint64_t run = 0;        ///< per-run master seed
  std::uint64_t engine = 0;     ///< EngineConfig::seed
  std::uint64_t scheduler = 0;  ///< generative-scheduler seed
  std::uint64_t initial = 0;    ///< initial-configuration seed
};

RunSeeds derive_seeds(std::uint64_t experiment_seed, std::uint64_t run_index);

/// The component streams of a run master seed (RunSpec::seed). Used by
/// instantiate(); exposed so tests can pin the rule. Note the state is
/// advanced by value: seed_streams(s).run == s.
RunSeeds seed_streams(std::uint64_t run_seed);

/// One registry-resolvable component: a string key plus a params object
/// whose schema belongs to the factory behind the key.
struct FactorySpec {
  std::string type;
  Json params = Json::object();

  [[nodiscard]] Json to_json() const;
  /// Reads slot `key` of a RunSpec: a type string, or an object of "type"
  /// (default `fallback_type`) and "params".
  static FactorySpec read(Fields& spec, std::string_view key, std::string_view fallback_type);
};

/// How a run's activation history is captured.
///
///   memory — materialize the in-memory core::Trace (the default and the
///            bit-identical reference path)
///   stream — bounded-memory: no in-memory history; records are framed to
///            `path` by trace::StreamTraceWriter and metrics fold online
///   off    — bounded-memory, no capture at all (metrics still fold online)
///
/// `path` is a template; expand() substitutes {name}, {index}, {seed},
/// {variant} and {repeat} per run ({name} with '/' and '#' mapped to '_'
/// so labels stay filesystem-safe). Serialized into the spec JSON only
/// when non-default, so existing memory-mode specs, reports and
/// fingerprints keep their bytes.
struct TraceSpec {
  std::string mode = "memory";
  std::string path;                 ///< stream mode: output path template
  std::size_t flush_every = 4096;   ///< writer flush cadence (records)
  std::size_t index_every = 65536;  ///< 'X' index frame cadence; 0 disables

  [[nodiscard]] bool is_default() const {
    return mode == "memory" && path.empty() && flush_every == 4096 && index_every == 65536;
  }

  [[nodiscard]] Json to_json() const;
  /// Reads the "trace" slot of a RunSpec: a mode string, or an object.
  static TraceSpec read(Fields& spec);
};

/// Complete description of one run. Defaults reproduce the quickstart
/// setup: KKNPS under k-Async on a random connected configuration.
struct RunSpec {
  std::string name = "run";
  std::size_t n = 16;
  std::uint64_t seed = 1;  ///< master seed; see derive_seeds
  FactorySpec algorithm{.type = "kknps"};
  FactorySpec scheduler{.type = "kasync"};
  FactorySpec error{.type = "noisy"};
  FactorySpec initial{.type = "random"};
  double visibility_radius = 1.0;
  bool open_ball = false;
  bool multiplicity_detection = false;
  core::StopCondition stop;  ///< predicate is not serialized
  TraceSpec trace;           ///< history capture; default preserves old bytes

  /// Also emits the retired engine switches "use_spatial_index" and
  /// "incremental_index" as the constant true, which every spec's bytes,
  /// fingerprints and cache keys have always carried.
  [[nodiscard]] Json to_json() const;
  /// Rejects unknown keys, and any retired engine switch set to its retired
  /// value ("use_spatial_index"/"incremental_index" false, "soa_kernel"
  /// true), naming the key path (prefixed by `path`).
  static RunSpec from_json(const Json& j, std::string_view path = "");
};

/// FNV-1a 64 of the resolved spec JSON — the run identity stamped into
/// stream headers, reports and checkpoints. The trace block is excluded
/// before hashing: capture configuration never changes the dynamics, so a
/// stream recorded in any mode of the same physical run carries the same
/// fingerprint as the in-memory reference.
[[nodiscard]] std::uint64_t spec_fingerprint(const RunSpec& spec);
/// 16-hex-digit rendering of a fingerprint (zero-padded, lowercase).
[[nodiscard]] std::string fingerprint_hex(std::uint64_t fp);

/// Content address of a run's *outcome* — what run/result_cache keys its
/// entries by. Like spec_fingerprint it hashes the resolved spec JSON with
/// the trace block excluded, but it additionally excludes `name`: expand()
/// bakes the sweep label and repeat-sibling suffix ("exp/k=2#1") into the
/// name, which is display identity, not physics — two sweeps that resolve a
/// variant to the same spec (same seed included) must share one cache entry
/// even though their labels differ. Everything that *does* change the
/// dynamics (n, seed, factories + params, visibility, kernel flag, stop
/// bounds) stays in the hash. The grid position (index/variant/repeat) is
/// never hashed; it only reaches the outcome through the derived seed.
/// Caveats (same as the checkpoint fingerprint): the programmatic
/// stop.predicate and the trace_metric hook are opaque C++ and cannot be
/// covered — identity is exact for anything expressible in spec JSON.
[[nodiscard]] std::uint64_t run_identity(const RunSpec& spec);

/// One axis of a sweep. `path` is a dotted path into the RunSpec JSON
/// ("scheduler.params.k", "n", ...); each value is substituted at that
/// path. The empty path "" deep-merges object values into the whole spec,
/// which expresses correlated overrides (e.g. matching algorithm and
/// scheduler k) and irregular case lists; such objects may carry a "label"
/// key, consumed for display only.
struct SweepAxis {
  std::string path;
  std::vector<Json> values;
};

/// A RunSpec expanded at one grid point, ready to execute.
struct ExpandedRun {
  RunSpec spec;          ///< fully resolved (overrides applied, seeds derived)
  std::size_t index = 0;    ///< position in the grid (document order)
  std::size_t variant = 0;  ///< grid point (repeats collapse to one variant)
  std::size_t repeat = 0;
  std::string label;        ///< human-readable grid-point description
};

/// Per-variant early stopping: once `window` consecutive completed repeats
/// of a variant agree on `metric` to within `epsilon` (max - min over the
/// window), the variant's remaining repeats are skipped.
///
/// Determinism contract: the rule is evaluated over a variant's own
/// outcomes in repeat order only, and each outcome is a pure function of
/// its RunSpec — so which repeats are skipped is a pure function of the
/// spec, never of thread count or completion order. BatchRunner enforces
/// the order by running a variant's repeats sequentially (different
/// variants still run in parallel) whenever the rule is enabled.
struct EarlyStop {
  std::size_t window = 0;  ///< agreeing-outcome count needed; 0 disables
  double epsilon = 0.0;    ///< max-min tolerance over the window
  /// Outcome field compared: "final_diameter" (default), "rounds",
  /// "rounds_to_halve", "activations", "worst_stretch", "custom" or
  /// "converged" (0/1). Unknown names throw before any run starts.
  std::string metric = "final_diameter";

  [[nodiscard]] bool enabled() const { return window > 0; }

  [[nodiscard]] Json to_json() const;
  static EarlyStop read(Fields block);
};

/// A whole sweep as one JSON artifact: a base RunSpec, a cartesian grid
/// of parameter overrides (`axes`), a repeat count, and an optional
/// per-variant early-stop rule. `expand()` is the single source of truth
/// for grid order and seed derivation; `expand_shard()` is its
/// deterministic partition for multi-process execution.
struct ExperimentSpec {
  std::string name = "experiment";
  RunSpec base;
  std::size_t repeats = 1;  ///< runs per grid point (distinct derived seeds)
  std::vector<SweepAxis> axes;
  EarlyStop early_stop;     ///< per-variant early stopping (default: off)

  /// Expand to the full run list: cartesian product of the axes (first axis
  /// outermost) times `repeats`, in document order. Deterministic.
  [[nodiscard]] std::vector<ExpandedRun> expand() const;

  /// Shard view of the grid for multi-process sweeps: the subset of
  /// expand() whose runs satisfy `variant % shard_count == shard_index`
  /// (round-robin over variants, not contiguous chunks, so every shard
  /// samples the whole sweep). Each run keeps its *global* grid index and
  /// therefore its derived seeds — the union over all shards is exactly
  /// expand(), which is what makes shard-merged reports bit-identical to a
  /// single-process run. Partitioning whole variants (rather than striding
  /// raw run indices) keeps every variant's repeat sequence inside one
  /// shard, so per-variant early stopping sees the full prefix it needs.
  /// Throws when shard_index >= shard_count or shard_count == 0.
  [[nodiscard]] std::vector<ExpandedRun> expand_shard(std::size_t shard_index,
                                                      std::size_t shard_count) const;
  /// Grid points: the product of the axis sizes. Throws, naming the axis
  /// index, when an axis is empty or the product overflows std::size_t.
  [[nodiscard]] std::size_t variant_count() const;
  /// expand()'s size without expanding: variant_count() x max(repeats, 1).
  /// Throws, naming `repeats`, when the product overflows std::size_t.
  [[nodiscard]] std::size_t run_count() const;

  [[nodiscard]] Json to_json() const;
  static ExperimentSpec from_json(const Json& j);
};

/// Substitute `value` at dotted `path` inside spec JSON `doc`, creating
/// intermediate objects as needed. Empty path requires an object value and
/// deep-merges it (objects recursively, anything else replaces).
void apply_override(Json& doc, const std::string& path, const Json& value);

}  // namespace cohesion::run
