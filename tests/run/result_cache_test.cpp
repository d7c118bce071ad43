// Invalidation battery for run/result_cache — the proof behind architecture
// contract #11 ("cached outcome ≡ recomputed outcome, or the entry is
// rejected as corrupt with a named cause"):
//
//   * adversarial entries (truncated, bit-flipped, wrong format/version,
//     misfiled identity, gutted payload) are rejected by message, counted,
//     and the run recomputed to the byte-identical cold report;
//   * a seeded 200-variant edit-one-axis fuzz shows exactly the edited
//     variants miss and the warm report equals the cold one byte for byte;
//   * two sweeps with overlapping pinned-seed grids dedup through one
//     directory despite disjoint display names;
//   * read-only mode serves hits but never writes; errored/skipped
//     outcomes and stream-mode lookups are refused/bypassed.
#include "run/result_cache.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "run/batch_runner.hpp"
#include "run/spec.hpp"

namespace cohesion::run {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_((fs::temp_directory_path() / ("cohesion_result_cache_" + tag)).string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Tiny but nontrivial sweep: every variant pins its own seed (so edits to
/// the axis are the only thing that changes a variant's identity) and runs
/// finish in well under a millisecond.
ExperimentSpec pinned_seed_experiment(const std::string& name, std::uint64_t first_seed,
                                      std::size_t variants) {
  ExperimentSpec e;
  e.name = name;
  e.base.n = 4;
  e.base.seed = 999;  // never pinned by the axis, so derivation is skipped
  e.base.stop.max_activations = 400;
  e.base.stop.check_every = 16;
  SweepAxis axis;
  axis.path = "seed";
  for (std::size_t i = 0; i < variants; ++i) axis.values.push_back(Json(first_seed + i));
  e.axes.push_back(std::move(axis));
  return e;
}

std::string run_report(const ExperimentSpec& e, ResultCache* cache) {
  BatchRunner::Options options;
  options.threads = 2;
  options.cache = cache;
  const BatchResult result = BatchRunner(options).run(e);
  return BatchRunner::report_json(e, result, /*include_timing=*/false).dump(2);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

TEST(ResultCache, ColdThenWarmIsByteIdenticalAndAllHits) {
  TempDir dir("warm");
  const ExperimentSpec e = pinned_seed_experiment("warmup", 100, 5);
  const std::string reference = run_report(e, nullptr);

  ResultCache cold(ResultCache::Options{.dir = dir.path()});
  EXPECT_EQ(run_report(e, &cold), reference);
  EXPECT_EQ(cold.stats().misses, 5u);
  EXPECT_EQ(cold.stats().inserts, 5u);
  EXPECT_EQ(cold.stats().hits, 0u);

  ResultCache warm(ResultCache::Options{.dir = dir.path()});
  EXPECT_EQ(run_report(e, &warm), reference);
  EXPECT_EQ(warm.stats().hits, 5u);
  EXPECT_EQ(warm.stats().misses, 0u);
  EXPECT_EQ(warm.stats().inserts, 0u);
  EXPECT_TRUE(warm.reject_causes().empty());
}

/// Each corruption must produce a reject whose cause names the failure,
/// and the batch must recompute to the byte-identical cold report — a
/// corrupt cache may cost time, never correctness.
TEST(ResultCache, CorruptEntriesAreRejectedByNameAndRecomputed) {
  TempDir dir("adversarial");
  const ExperimentSpec e = pinned_seed_experiment("adv", 200, 1);
  const std::string reference = run_report(e, nullptr);
  const std::string entry = ResultCache(ResultCache::Options{.dir = dir.path()})
                                .entry_path(e.expand()[0].spec);

  struct Corruption {
    const char* tag;
    const char* expected_cause;  // substring of the recorded reject line
    std::string (*apply)(const std::string& pristine);
  };
  const Corruption corruptions[] = {
      {"truncated", "not valid JSON",
       [](const std::string& pristine) { return pristine.substr(0, pristine.size() / 2); }},
      {"bit-flipped", "checksum mismatch",
       [](const std::string& pristine) {
         // Change one digit of the payload: still valid JSON, wrong bytes.
         std::string bytes = pristine;
         const std::size_t pos = bytes.find("\"activations\":");
         const std::size_t digit = bytes.find_first_of("0123456789", pos + 14);
         bytes[digit] = bytes[digit] == '1' ? '2' : '1';
         return bytes;
       }},
      {"wrong-version", "format marker",
       [](const std::string& pristine) {
         std::string bytes = pristine;
         const std::size_t pos = bytes.find("cohesion-result-cache/1");
         bytes.replace(pos, 23, "cohesion-result-cache/9");
         return bytes;
       }},
      {"misfiled", "identity mismatch",
       [](const std::string& pristine) {
         Json doc = Json::parse(pristine);
         doc.set("identity", std::string(16, '0'));
         return doc.dump() + "\n";
       }},
      {"gutted", "no outcome object",
       [](const std::string& pristine) {
         Json doc = Json::parse(pristine);
         doc.set("outcome", Json(7));
         return doc.dump() + "\n";
       }},
      {"mistyped-payload", "not a run outcome",
       [](const std::string& pristine) {
         Json doc = Json::parse(pristine);
         Json* payload = doc.find("outcome");
         payload->set("rounds", "many");  // wrong kind; checksum must be redone
         // Re-checksum so validation reaches the payload parse. Mirrors the
         // writer: FNV-1a 64 over the payload dump.
         std::uint64_t h = 0xCBF29CE484222325ull;
         for (const char c : payload->dump()) {
           h ^= static_cast<unsigned char>(c);
           h *= 0x100000001B3ull;
         }
         doc.set("checksum", fingerprint_hex(h));
         return doc.dump() + "\n";
       }},
  };

  for (const Corruption& corruption : corruptions) {
    SCOPED_TRACE(corruption.tag);
    // Re-seed a pristine entry, then corrupt it on disk.
    {
      ResultCache seed_cache(ResultCache::Options{.dir = dir.path()});
      ASSERT_EQ(run_report(e, &seed_cache), reference);
    }
    const std::string pristine = read_file(entry);
    ASSERT_FALSE(pristine.empty());
    write_file(entry, corruption.apply(pristine));

    ResultCache cache(ResultCache::Options{.dir = dir.path()});
    EXPECT_EQ(run_report(e, &cache), reference) << "recomputation must restore the cold report";
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.rejects, 1u);
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.inserts, 1u) << "the recomputed outcome must heal the entry";
    const std::vector<std::string> causes = cache.reject_causes();
    ASSERT_EQ(causes.size(), 1u);
    EXPECT_NE(causes[0].find(entry), std::string::npos) << causes[0];
    EXPECT_NE(causes[0].find(corruption.expected_cause), std::string::npos) << causes[0];

    // The healed entry serves again.
    ResultCache healed(ResultCache::Options{.dir = dir.path()});
    EXPECT_EQ(run_report(e, &healed), reference);
    EXPECT_EQ(healed.stats().hits, 1u);
    EXPECT_EQ(healed.stats().rejects, 0u);
  }
}

/// The tentpole invalidation property, fuzzed: edit one axis value at a
/// seeded-random subset of a 200-variant sweep; exactly the edited
/// variants miss, everything else hits, and the warm report is
/// byte-identical to a cold run of the edited sweep.
TEST(ResultCache, EditOneAxisFuzz200Variants) {
  TempDir dir("fuzz");
  ExperimentSpec e = pinned_seed_experiment("fuzz", 1, 200);

  {
    ResultCache cold(ResultCache::Options{.dir = dir.path()});
    run_report(e, &cold);
    ASSERT_EQ(cold.stats().inserts, 200u);
  }

  // Seeded edit: a fixed mt19937 picks the variants whose pinned seed
  // moves out of the original range (1001+i collides with nothing).
  std::mt19937 rng(20260808u);
  std::set<std::size_t> edited;
  while (edited.size() < 17) {
    edited.insert(static_cast<std::size_t>(rng() % 200));
  }
  for (const std::size_t v : edited) {
    e.axes[0].values[v] = Json(1001 + v);
  }

  const std::string cold_edited = run_report(e, nullptr);
  ResultCache warm(ResultCache::Options{.dir = dir.path()});
  EXPECT_EQ(run_report(e, &warm), cold_edited)
      << "warm report of the edited sweep must equal its cold report byte for byte";
  const CacheStats stats = warm.stats();
  EXPECT_EQ(stats.misses, edited.size()) << "exactly the edited variants recompute";
  EXPECT_EQ(stats.hits, 200u - edited.size()) << "every unedited variant is served";
  EXPECT_EQ(stats.rejects, 0u);
  EXPECT_EQ(stats.inserts, edited.size());
}

TEST(ResultCache, OverlappingSweepsDedupThroughOneDirectory) {
  TempDir dir("dedup");
  const ExperimentSpec a = pinned_seed_experiment("sweepA", 1, 8);   // seeds 1..8
  const ExperimentSpec b = pinned_seed_experiment("sweepB", 5, 8);   // seeds 5..12

  ResultCache cache_a(ResultCache::Options{.dir = dir.path()});
  run_report(a, &cache_a);
  ASSERT_EQ(cache_a.stats().inserts, 8u);

  // sweepB's display names ("sweepB/seed=5#...") never matched sweepA's,
  // but the four overlapping pinned-seed variants resolve to the same
  // specs — name is excluded from run_identity, so they hit.
  ResultCache cache_b(ResultCache::Options{.dir = dir.path()});
  run_report(b, &cache_b);
  EXPECT_EQ(cache_b.stats().hits, 4u);
  EXPECT_EQ(cache_b.stats().misses, 4u);
  EXPECT_EQ(cache_b.stats().inserts, 4u);
}

TEST(ResultCache, ReadOnlyServesHitsButNeverWrites) {
  TempDir dir("readonly");
  const ExperimentSpec e = pinned_seed_experiment("ro", 300, 3);
  const std::string reference = run_report(e, nullptr);

  {
    ResultCache writer(ResultCache::Options{.dir = dir.path()});
    run_report(e, &writer);
  }
  const auto entry_count = [&dir] {
    std::size_t count = 0;
    for (const auto& it : fs::directory_iterator(dir.path())) {
      (void)it;
      ++count;
    }
    return count;
  };
  ASSERT_EQ(entry_count(), 3u);

  ResultCache ro(ResultCache::Options{.dir = dir.path(), .read_only = true});
  EXPECT_EQ(run_report(e, &ro), reference);
  EXPECT_EQ(ro.stats().hits, 3u);
  EXPECT_EQ(ro.stats().inserts, 0u);
  EXPECT_EQ(entry_count(), 3u);

  // Read-only against a missing directory degrades to misses — it must
  // not create the directory either.
  const std::string absent = dir.path() + "/nonexistent";
  ResultCache ghost(ResultCache::Options{.dir = absent, .read_only = true});
  EXPECT_EQ(run_report(e, &ghost), reference);
  EXPECT_EQ(ghost.stats().misses, 3u);
  EXPECT_FALSE(fs::exists(absent));
}

TEST(ResultCache, ErroredAndSkippedOutcomesAreRefused) {
  TempDir dir("refuse");
  ResultCache cache(ResultCache::Options{.dir = dir.path()});
  ExpandedRun run;
  run.spec.n = 4;
  run.spec.seed = 41;

  RunOutcome errored;
  errored.error = "factory exploded";
  cache.insert(run, errored);
  RunOutcome skipped;
  skipped.skipped = true;
  cache.insert(run, skipped);
  EXPECT_EQ(cache.stats().inserts, 0u);
  EXPECT_FALSE(fs::exists(cache.entry_path(run.spec)));
}

TEST(ResultCache, StreamModeBypassesLookupButStillInserts) {
  TempDir dir("stream");
  ResultCache cache(ResultCache::Options{.dir = dir.path()});

  ExpandedRun run;
  run.spec.n = 4;
  run.spec.seed = 42;
  RunOutcome outcome;
  outcome.n = 4;
  outcome.converged = true;
  outcome.report.converged = true;
  outcome.report.cohesive = true;
  outcome.report.rounds = 9;
  cache.insert(run, outcome);
  ASSERT_EQ(cache.stats().inserts, 1u);

  // The same physics requested by a stream-mode run: bypassed, not hit —
  // the run must execute so its .cohtrace gets written.
  ExpandedRun streaming = run;
  streaming.spec.trace.mode = "stream";
  streaming.spec.trace.path = dir.path() + "/t.cohtrace";
  EXPECT_FALSE(cache.lookup(streaming).has_value());
  EXPECT_EQ(cache.stats().bypassed, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);

  // Memory-mode lookup of the same spec hits (trace is not identity).
  EXPECT_TRUE(cache.lookup(run).has_value());
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ResultCache, HitCarriesTheLookingRunsGridShell) {
  TempDir dir("shell");
  ResultCache cache(ResultCache::Options{.dir = dir.path()});

  ExpandedRun inserter;
  inserter.spec.name = "sweepA/k=1#0";
  inserter.spec.n = 4;
  inserter.spec.seed = 77;
  inserter.index = 0;
  inserter.label = "k=1";
  RunOutcome outcome;
  outcome.n = 4;
  outcome.converged = true;
  outcome.report.converged = true;
  outcome.report.rounds = 5;
  outcome.report.final_diameter = 0.25;
  outcome.seed = inserter.spec.seed;
  cache.insert(inserter, outcome);

  ExpandedRun looker;
  looker.spec = inserter.spec;
  looker.spec.name = "sweepB/other-label#2";  // different display identity
  looker.index = 11;
  looker.variant = 3;
  looker.repeat = 2;
  looker.label = "other-label";
  const std::optional<RunOutcome> hit = cache.lookup(looker);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->index, 11u);
  EXPECT_EQ(hit->variant, 3u);
  EXPECT_EQ(hit->repeat, 2u);
  EXPECT_EQ(hit->label, "other-label");
  EXPECT_EQ(hit->seed, 77u);
  EXPECT_EQ(hit->report.rounds, 5u);
  EXPECT_DOUBLE_EQ(hit->report.final_diameter, 0.25);
  EXPECT_TRUE(hit->converged);
}

/// An entry as the cache has always written it, bytes pinned: the payload
/// (field order, number formatting) and its checksum. Only the identity is
/// derived here, since it fingerprints the resolved spec.
TEST(ResultCache, EntryInThePinnedFormatHitsAndInsertsTheSameBytes) {
  TempDir dir("pinned");
  ResultCache cache(ResultCache::Options{.dir = dir.path()});
  ExpandedRun run;
  run.spec.n = 4;
  run.spec.seed = 43;
  run.index = 5;
  const std::string entry =
      "{\"format\":\"cohesion-result-cache/1\",\"identity\":\"" +
      fingerprint_hex(run_identity(run.spec)) +
      "\",\"outcome\":{\"n\":4,\"converged\":true,\"cohesive\":true,\"initial_diameter\":2.25,"
      "\"final_diameter\":0.049999999999999996,\"rounds\":9,\"rounds_to_halve\":3,"
      "\"activations\":123,\"worst_stretch\":0.9876543210123457,\"custom\":-1.5},"
      "\"checksum\":\"36e72a439bfa26e8\"}\n";
  write_file(cache.entry_path(run.spec), entry);

  const std::optional<RunOutcome> hit = cache.lookup(run);
  ASSERT_TRUE(hit.has_value()) << (cache.reject_causes().empty() ? ""
                                                                  : cache.reject_causes()[0]);
  EXPECT_EQ(hit->index, 5u);
  EXPECT_EQ(hit->n, 4u);
  EXPECT_TRUE(hit->converged);
  EXPECT_TRUE(hit->report.converged);
  EXPECT_TRUE(hit->report.cohesive);
  EXPECT_EQ(hit->report.initial_diameter, 2.25);
  EXPECT_EQ(hit->report.final_diameter, 0.049999999999999996);
  EXPECT_EQ(hit->report.rounds, 9u);
  EXPECT_EQ(hit->report.rounds_to_halve, 3u);
  EXPECT_EQ(hit->report.activations, 123u);
  EXPECT_EQ(hit->report.worst_stretch, 0.9876543210123457);
  EXPECT_EQ(hit->custom, -1.5);

  // Re-inserting the served outcome rewrites the identical bytes.
  fs::remove(cache.entry_path(run.spec));
  cache.insert(run, *hit);
  EXPECT_EQ(read_file(cache.entry_path(run.spec)), entry);
}

}  // namespace
}  // namespace cohesion::run
