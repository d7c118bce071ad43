// Fingerprint battery for the two run identities (run/spec.hpp):
//
//   spec_fingerprint — stream/checkpoint identity; hashes everything in the
//                      resolved spec JSON except the trace block.
//   run_identity     — result-cache key; additionally excludes `name`
//                      (display identity: sweep label + repeat suffix).
//
// The core test is exhaustive by construction rather than by enumeration:
// it walks every leaf of the serialized sample spec, perturbs exactly that
// leaf, and asserts the fingerprint moved (or, for trace/name leaves,
// stayed put). A new RunSpec field added to to_json() is covered here
// automatically — and if it is added to the exclusion set by mistake, the
// walker fails on it by name.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "run/spec.hpp"

namespace cohesion::run {
namespace {

/// Sample spec with every field off its default and non-empty params, so
/// every serialized leaf actually appears in the JSON (conditionally
/// serialized blocks like `trace` are absent when default).
RunSpec sample_spec() {
  RunSpec s;
  s.name = "fp-sample";
  s.n = 24;
  s.seed = 0xFEEDFACE12345678ull;
  s.algorithm = {.type = "kknps", .params = Json::parse(R"({"k": 3, "distance_delta": 0.05})")};
  s.scheduler = {.type = "kasync", .params = Json::parse(R"({"k": 3, "xi": 0.4})")};
  s.error = {.type = "noisy", .params = Json::parse(R"({"skew_lambda": 0.1})")};
  s.initial = {.type = "random", .params = Json::parse(R"({"world_radius": 2.0})")};
  s.visibility_radius = 1.5;
  s.open_ball = true;
  s.multiplicity_detection = true;
  s.soa_kernel = true;  // serialized (and thus walked) only when true
  s.stop.epsilon = 0.08;
  s.stop.max_activations = 1234;
  s.stop.check_every = 32;
  s.stop.max_time = 75.5;
  s.trace.mode = "stream";
  s.trace.path = "/tmp/{name}-{index}.cohtrace";
  s.trace.flush_every = 8;
  s.trace.index_every = 16;
  return s;
}

/// Collect the dotted path of every leaf (non-object, non-array value) in a
/// JSON document. Array elements get a ".<i>" segment.
void collect_leaves(const Json& j, const std::string& prefix, std::vector<std::string>* out) {
  if (j.is_object()) {
    for (const auto& [key, value] : j.entries()) {
      collect_leaves(value, prefix.empty() ? key : prefix + "." + key, out);
    }
  } else if (j.is_array()) {
    for (std::size_t i = 0; i < j.items().size(); ++i) {
      collect_leaves(j.items()[i], prefix + "." + std::to_string(i), out);
    }
  } else {
    out->push_back(prefix);
  }
}

/// Mutable pointer to the leaf at dotted `path` (as produced above).
Json* leaf_at(Json* j, const std::string& path) {
  std::size_t start = 0;
  while (start < path.size()) {
    const std::size_t dot = path.find('.', start);
    const std::string seg = path.substr(start, dot == std::string::npos ? dot : dot - start);
    if (j->is_array()) {
      j = &j->items()[static_cast<std::size_t>(std::stoul(seg))];
    } else {
      j = j->find(seg);
      if (j == nullptr) return nullptr;
    }
    if (dot == std::string::npos) break;
    start = dot + 1;
  }
  return j;
}

/// Perturb a leaf to a different value of the same JSON kind: bool flips,
/// numbers move by +1 / +0.5, strings get a suffix.
void perturb(Json* leaf) {
  if (leaf->is_bool()) {
    *leaf = Json(!leaf->as_bool());
  } else if (leaf->is_number()) {
    // Integer flavors survive +1 without overflow in the sample; doubles
    // move by a half so 0.05 -> 0.55 stays exactly representable enough.
    const double d = leaf->as_double();
    if (d == static_cast<double>(static_cast<std::uint64_t>(d)) && d >= 0) {
      *leaf = Json(leaf->as_uint() + 1);
    } else {
      *leaf = Json(d + 0.5);
    }
  } else if (leaf->is_string()) {
    *leaf = Json(leaf->as_string() + "x");
  } else {
    FAIL() << "unexpected leaf kind";
  }
}

bool in_trace_block(const std::string& path) { return path.rfind("trace.", 0) == 0 || path == "trace"; }

TEST(Fingerprint, EveryNonTraceLeafChangesSpecFingerprint) {
  const RunSpec base = sample_spec();
  const Json doc = base.to_json();
  const std::uint64_t fp = spec_fingerprint(base);
  const std::uint64_t id = run_identity(base);

  std::vector<std::string> leaves;
  collect_leaves(doc, "", &leaves);
  ASSERT_GT(leaves.size(), 20u) << "sample spec should serialize a rich leaf set";
  ASSERT_TRUE(doc.contains("trace")) << "sample spec must exercise the trace exclusion";

  for (const std::string& path : leaves) {
    // The retired engine switches are emitted as the constant true and any
    // other value is rejected (RunSpec.RetiredIndexFlagsAcceptOnlyTrue), so
    // there is no perturbation to walk.
    if (path == "use_spatial_index" || path == "incremental_index") continue;
    Json mutated = doc;
    Json* leaf = leaf_at(&mutated, path);
    ASSERT_NE(leaf, nullptr) << path;
    if (path == "trace.mode") {
      *leaf = Json("off");  // the mode enum is validated; "off" != "stream"
    } else {
      perturb(leaf);
    }
    const RunSpec spec = RunSpec::from_json(mutated);
    if (in_trace_block(path)) {
      EXPECT_EQ(spec_fingerprint(spec), fp) << "trace leaf must not change identity: " << path;
      EXPECT_EQ(run_identity(spec), id) << "trace leaf must not change cache key: " << path;
    } else {
      EXPECT_NE(spec_fingerprint(spec), fp) << "leaf not covered by fingerprint: " << path;
      if (path == "name") {
        EXPECT_EQ(run_identity(spec), id) << "name is display identity, not physics";
      } else {
        EXPECT_NE(run_identity(spec), id) << "leaf not covered by cache key: " << path;
      }
    }
  }
}

TEST(Fingerprint, KeyOrderIsCanonicalizedAway) {
  // from_json reads schema fields by key and to_json re-emits them in
  // declaration order, so a spec document with its schema keys reversed
  // (recursively) fingerprints the same — hand-edited spec files are
  // cache-stable. The one deliberate exception: factory `params` objects
  // are opaque to the schema (their layout belongs to the factory), so
  // their key order is carried verbatim and IS identity — asserted below.
  const RunSpec base = sample_spec();
  Json doc = base.to_json();

  struct Reverser {
    static void reverse(Json* j, bool opaque) {
      if (j->is_object()) {
        auto& entries = j->entries();
        if (!opaque) std::reverse(entries.begin(), entries.end());
        for (auto& [key, value] : entries) reverse(&value, opaque || key == "params");
      } else if (j->is_array()) {
        for (Json& item : j->items()) reverse(&item, opaque);  // element order is semantic
      }
    }
  };
  Reverser::reverse(&doc, /*opaque=*/false);
  ASSERT_NE(doc.dump(), base.to_json().dump()) << "reversal must actually reorder keys";

  const RunSpec reparsed = RunSpec::from_json(doc);
  EXPECT_EQ(spec_fingerprint(reparsed), spec_fingerprint(base));
  EXPECT_EQ(run_identity(reparsed), run_identity(base));

  // Reordering keys *inside* a params object does change identity.
  Json params_reordered = base.to_json();
  auto& k = params_reordered.find("scheduler")->find("params")->entries();
  ASSERT_GE(k.size(), 2u);
  std::reverse(k.begin(), k.end());
  EXPECT_NE(spec_fingerprint(RunSpec::from_json(params_reordered)), spec_fingerprint(base));
}

TEST(Fingerprint, DefaultTraceAndExplicitDefaultTraceAgree) {
  // A spec that spells out the default trace block hashes like one that
  // omits it — the exclusion happens before serialization.
  RunSpec plain = sample_spec();
  plain.trace = TraceSpec{};
  RunSpec spelled = plain;
  spelled.trace.mode = "memory";  // is_default() stays true
  EXPECT_EQ(spec_fingerprint(plain), spec_fingerprint(spelled));

  RunSpec streamy = plain;
  streamy.trace.mode = "stream";
  streamy.trace.path = "/tmp/x.cohtrace";
  EXPECT_EQ(spec_fingerprint(plain), spec_fingerprint(streamy));
  EXPECT_EQ(run_identity(plain), run_identity(streamy));
}

TEST(Fingerprint, RepeatSiblingsWithPinnedSeedShareRunIdentity) {
  // A sweep axis that pins the seed makes a variant's repeats physically
  // identical runs: expand() bakes distinct "#r" suffixes into their names
  // (distinct spec_fingerprint — streams/checkpoints must tell them apart)
  // but the cache must serve them from one entry (equal run_identity).
  ExperimentSpec e;
  e.name = "pinned";
  e.base.n = 6;
  e.base.seed = 7;
  e.repeats = 3;
  e.axes.push_back({"seed", {Json(11), Json(12)}});

  const std::vector<ExpandedRun> runs = e.expand();
  ASSERT_EQ(runs.size(), 6u);
  for (std::size_t v = 0; v < 2; ++v) {
    const ExpandedRun& first = runs[v * 3];
    for (std::size_t r = 1; r < 3; ++r) {
      const ExpandedRun& sibling = runs[v * 3 + r];
      EXPECT_NE(sibling.spec.name, first.spec.name);
      EXPECT_NE(spec_fingerprint(sibling.spec), spec_fingerprint(first.spec));
      EXPECT_EQ(run_identity(sibling.spec), run_identity(first.spec))
          << "pinned-seed repeat #" << r << " must share the cache entry";
    }
  }
  // Across variants the pinned seeds differ, so identities must too.
  EXPECT_NE(run_identity(runs[0].spec), run_identity(runs[3].spec));
}

TEST(Fingerprint, DerivedSeedRepeatsDiffer) {
  // Without a pinned seed every repeat derives a distinct seed from its
  // grid index — distinct physics, distinct cache entries.
  ExperimentSpec e;
  e.name = "derived";
  e.base.n = 6;
  e.base.seed = 7;
  e.repeats = 3;
  const std::vector<ExpandedRun> runs = e.expand();
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_NE(run_identity(runs[0].spec), run_identity(runs[1].spec));
  EXPECT_NE(run_identity(runs[1].spec), run_identity(runs[2].spec));
}

TEST(Fingerprint, IdentityIsIndependentOfGridPosition) {
  // Reordering an axis's values permutes grid indices/labels but must not
  // change any pinned variant's identity: position reaches the outcome
  // only through the derived seed, and these seeds are pinned.
  ExperimentSpec fwd;
  fwd.base.n = 6;
  fwd.base.seed = 7;
  fwd.axes.push_back({"seed", {Json(11), Json(12), Json(13)}});
  ExperimentSpec rev = fwd;
  rev.axes[0].values = {Json(13), Json(12), Json(11)};

  const std::vector<ExpandedRun> a = fwd.expand();
  const std::vector<ExpandedRun> b = rev.expand();
  ASSERT_EQ(a.size(), 3u);
  ASSERT_EQ(b.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(run_identity(a[i].spec), run_identity(b[2 - i].spec))
        << "same pinned seed at a different grid index must keep its identity";
  }
}

TEST(Fingerprint, CrossSweepVariantsShareIdentityDespiteLabels) {
  // Two sweeps with different names whose grids overlap on pinned seeds:
  // the overlapping variants carry different display names but identical
  // run identities — the dedup property result_cache relies on.
  ExperimentSpec a;
  a.name = "sweepA";
  a.base.n = 6;
  a.base.seed = 7;
  a.axes.push_back({"seed", {Json(21), Json(22)}});
  ExperimentSpec b = a;
  b.name = "sweepB";
  b.axes[0].values = {Json(22), Json(23)};

  const std::vector<ExpandedRun> ra = a.expand();
  const std::vector<ExpandedRun> rb = b.expand();
  EXPECT_NE(ra[1].spec.name, rb[0].spec.name);
  EXPECT_EQ(run_identity(ra[1].spec), run_identity(rb[0].spec));
  EXPECT_NE(run_identity(ra[0].spec), run_identity(rb[1].spec));
}

TEST(Fingerprint, HexRenderingIsStable) {
  const RunSpec s = sample_spec();
  const std::string hex = fingerprint_hex(run_identity(s));
  EXPECT_EQ(hex.size(), 16u);
  EXPECT_EQ(hex.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_EQ(hex, fingerprint_hex(run_identity(s)));
}

}  // namespace
}  // namespace cohesion::run
