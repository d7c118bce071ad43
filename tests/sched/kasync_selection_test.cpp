// KAsync's robot selection (JitteredSelection: a certified candidate set
// and a batched kernel) against its scalar reference, one proposal at a
// time and over long proposal sequences, and the two pieces it is built
// from: the bulk Mersenne Twister (stream-identical to std::mt19937_64) and
// the branch-free generate_canonical conversion. Every compiled copy of
// the kernel is checked: the baseline always, the AVX2 copy where the CPU
// has AVX2. Part of the certification battery
// (tools/check_kernel_certification.sh), so it also runs under ASan+UBSan
// and -march=native.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <bitset>
#include <cmath>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "oracles/kasync_selection_oracle.hpp"
#include "sched/asynchronous.hpp"
#include "sched/mersenne_twister.hpp"

namespace cohesion::sched {
namespace {

constexpr std::size_t kBlock = Mt19937_64::state_size;

TEST(Mt19937_64, StandardTenThousandthOutput) {
  Mt19937_64 scalar;
  for (int i = 1; i < 10000; ++i) (void)scalar();
  EXPECT_EQ(scalar(), 9981545732273789042ULL);

  Mt19937_64 bulk;
  std::uint64_t last = 0;
  bulk.advance(10000, [&](std::size_t, const std::uint64_t* words, std::size_t len) {
    last = Mt19937_64::temper(words[len - 1]);
  });
  EXPECT_EQ(last, 9981545732273789042ULL);
}

TEST(Mt19937_64, MatchesStdEngineWithBulkCallsAtEveryBlockOffset) {
  constexpr std::size_t kOutputs = 1'000'000;
  for (const std::uint64_t seed : {0ULL, 1ULL, 11ULL, 5489ULL, ~0ULL}) {
    std::mt19937_64 reference(seed);
    Mt19937_64 engine(seed);
    std::vector<std::uint64_t> buf(3 * kBlock);
    std::bitset<kBlock> offsets;
    std::size_t pos = 0;
    for (std::size_t segment = 0; pos < kOutputs; ++segment) {
      // Scalar calls up to the next target offset, then one advance() whose
      // length (0 to ~2 blocks) walks across block boundaries.
      const std::size_t scalar_run = (segment + kBlock - pos % kBlock) % kBlock;
      for (std::size_t i = 0; i < scalar_run && pos < kOutputs; ++i, ++pos) {
        ASSERT_EQ(engine(), reference()) << "seed " << seed << " output " << pos;
      }
      if (pos == kOutputs) break;
      const std::size_t len = std::min((segment * 131) % (2 * kBlock + 7), kOutputs - pos);
      // advance() shows each block's run of untempered words once, in
      // order, each run inside one block; tempered, they are the outputs.
      offsets.set(pos % kBlock);
      std::size_t covered = 0;
      engine.advance(len, [&](std::size_t first, const std::uint64_t* words, std::size_t run) {
        ASSERT_EQ(first, covered) << "seed " << seed << " output " << pos;
        ASSERT_GT(run, 0u);
        ASSERT_LE((pos + first) % kBlock + run, kBlock) << "run crosses a block";
        for (std::size_t i = 0; i < run; ++i) buf[first + i] = Mt19937_64::temper(words[i]);
        covered += run;
      });
      ASSERT_EQ(covered, len) << "seed " << seed << " output " << pos;
      for (std::size_t i = 0; i < len; ++i, ++pos) {
        ASSERT_EQ(buf[i], reference()) << "seed " << seed << " output " << pos;
      }
    }
    EXPECT_TRUE(offsets.all()) << "seed " << seed;
  }
}

/// A URBG that always returns one fixed word: generate_canonical over it is
/// the standard's conversion of exactly that word.
struct FixedWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type word;
  result_type operator()() const { return word; }
};

double std_canonical(std::uint64_t u) {
  FixedWord urbg{u};
  return std::generate_canonical<double, 53>(urbg);
}

TEST(CanonicalDouble, MatchesGenerateCanonicalAtRoundingEdges) {
  constexpr std::uint64_t k53 = std::uint64_t{1} << 53;
  constexpr std::uint64_t kTop = ~std::uint64_t{0};
  for (const std::uint64_t u : {std::uint64_t{0}, std::uint64_t{1}, k53 - 1, k53, k53 + 1,
                                std::uint64_t{1} << 63, kTop - 1024, kTop - 1023, kTop}) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(canonical_double(u)),
              std::bit_cast<std::uint64_t>(std_canonical(u)))
        << "u = " << u;
  }
  // 2^64 - 2^10 - 1 rounds down to 2^64 - 2^11, already the largest double
  // below 1 after scaling; 2^64 - 2^10 and above round up to 1.0 and take
  // the fixup back to it.
  const double below_one = std::nextafter(1.0, 0.0);
  for (const std::uint64_t u : {kTop - 1024, kTop - 1023, kTop}) {
    EXPECT_EQ(canonical_double(u), below_one) << "u = " << u;
  }
}

TEST(CanonicalDouble, MatchesGenerateCanonicalOnRandomWords) {
  std::mt19937_64 words(7);
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint64_t u = words() >> (i % 64);  // every magnitude
    ASSERT_EQ(std::bit_cast<std::uint64_t>(canonical_double(u)),
              std::bit_cast<std::uint64_t>(std_canonical(u)))
        << "u = " << u;
  }
}

/// Ready times shaped like KAsync's: many robots exactly at (or behind) the
/// frontier after k-bound postponements, runs of equal values, and values
/// within the 1e-6 jitter width of the minimum.
constexpr std::size_t kShapes = 5;
constexpr std::size_t kHugeFrontierShape = 4;

std::vector<double> ready_times(std::size_t n, std::size_t shape, double frontier,
                                std::mt19937_64& gen) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const double ulp = std::nextafter(frontier, INFINITY) - frontier;
  std::vector<double> ready(n);
  for (double& t : ready) {
    const double u = unit(gen);
    switch (shape) {
      case 0:  // tied at the frontier, behind it, or well after it
        t = u < 0.4 ? frontier : u < 0.6 ? frontier - unit(gen) : frontier + 3.0 * unit(gen);
        break;
      case 1:  // a handful of distinct values, each shared by many robots
        t = frontier + 0.25 * static_cast<double>(static_cast<int>(4.0 * u));
        break;
      case 2:  // everything within a few jitter widths of the minimum
        t = frontier + 1.0 + 3e-6 * u;
        break;
      case 3:  // jitter-width steps: exact ties and near-ties together
        t = frontier + 1e-7 * static_cast<double>(static_cast<int>(40.0 * u));
        break;
      default:  // kHugeFrontierShape: the frontier is in [2^32, 2^34), where
                // one ulp (~1e-6 or 2e-6) is as wide as the jitter, so each
                // jittered time is its ready time or one ulp above it and
                // the minimum is an exact tie between many robots
        t = u < 0.4   ? frontier
            : u < 0.6 ? frontier - unit(gen)
                      : frontier + ulp * static_cast<double>(static_cast<int>(3.0 * unit(gen)));
        break;
    }
  }
  return ready;
}

/// How many robots the reference's jittered times tie at their minimum
/// (the reference engine is taken by value: the caller's stays put).
std::size_t tied_at_minimum(std::mt19937_64 reference, const std::vector<double>& ready,
                            double frontier) {
  std::uniform_real_distribution<double> tie(0.0, 1e-6);
  std::vector<double> times(ready.size());
  for (std::size_t r = 0; r < ready.size(); ++r) {
    times[r] = std::max(ready[r], frontier) + tie(reference);
  }
  const double lowest = *std::min_element(times.begin(), times.end());
  return static_cast<std::size_t>(std::count(times.begin(), times.end(), lowest));
}

struct SelectionCopy {
  const char* name;
  JitteredSelection::Kernel kernel;
};

/// The kernel copies this host can run: the baseline always, AVX2 where
/// the CPU has it, and the default JitteredSelection picks.
std::vector<SelectionCopy> runnable_copies() {
  std::vector<SelectionCopy> copies = {{"baseline", detail::select_candidate_baseline},
                                       {"dispatch", JitteredSelection::default_kernel()}};
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) copies.push_back({"avx2", detail::select_candidate_avx2});
#endif
  return copies;
}

/// Whether the test can stop without a skip note: false on an x86-64 CPU
/// without AVX2, where only the baseline copy was checked.
bool checked_every_copy() {
#if defined(__x86_64__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return true;
#endif
}

/// The candidate count the class comment's certificate gives: robots with
/// ready <= fl(max(min ready, frontier) + 1e-6).
std::size_t certified_candidates(const std::vector<double>& ready, double frontier) {
  const double thr = std::max(*std::min_element(ready.begin(), ready.end()), frontier) + 1e-6;
  return static_cast<std::size_t>(
      std::count_if(ready.begin(), ready.end(), [&](double t) { return t <= thr; }));
}

TEST(KAsyncSelection, MatchesScalarReferenceAcrossBlockBoundaries) {
  const std::size_t sizes[] = {1, 2, 3, 155, 156, 157, 311, 312, 313, 624, 625, 2048, 4097};
  for (const SelectionCopy& copy : runnable_copies()) {
    SCOPED_TRACE(copy.name);
    std::mt19937_64 gen(2026);
    std::size_t cases = 0;
    std::size_t huge_frontier_ties = 0;
    for (std::size_t round = 0; round < 160; ++round) {
      for (const std::size_t n : sizes) {
        const std::uint64_t seed = gen();
        const std::size_t shape = cases % kShapes;
        std::uniform_real_distribution<double> unit(0.0, 1.0);
        const double frontier = shape == kHugeFrontierShape
                                    ? std::ldexp(1.0 + unit(gen), 32 + static_cast<int>(gen() % 2))
                                    : 10.0 * unit(gen);
        const std::vector<double> ready = ready_times(n, shape, frontier, gen);
        // Start the selection at a different offset inside an engine block
        // each case, so every n straddles block boundaries somewhere.
        const std::size_t skip = gen() % (2 * kBlock);
        std::mt19937_64 reference(seed);
        Mt19937_64 engine(seed);
        for (std::size_t i = 0; i < skip; ++i) {
          (void)reference();
          (void)engine();
        }
        if (shape == kHugeFrontierShape && tied_at_minimum(reference, ready, frontier) > 1) {
          ++huge_frontier_ties;
        }

        JitteredSelection selection(ready, copy.kernel);
        ASSERT_EQ(selection.select(engine, frontier),
                  oracles::select_jittered(reference, ready, frontier))
            << "case " << cases << " n " << n << " skip " << skip;
        EXPECT_EQ(selection.words_tempered(), certified_candidates(ready, frontier));
        // Same stream position: the next draws agree.
        std::uniform_real_distribution<double> next_a(0.0, 1.0), next_b(0.0, 1.0);
        for (int i = 0; i < 8; ++i) {
          ASSERT_EQ(next_a(engine), next_b(reference)) << "case " << cases << " draw " << i;
        }
        ++cases;
      }
    }
    EXPECT_GE(cases, 2000u);
    // The huge-frontier shape must really produce exact ties at the
    // minimum, or it certifies nothing about the lowest-index rule.
    EXPECT_GE(huge_frontier_ties, cases / kShapes / 2);
  }
  if (!checked_every_copy()) GTEST_SKIP() << "CPU lacks avx2: only the baseline copy was checked";
}

/// How the stateful fuzz moves the frontier and reschedules each winner
/// (look = max(winner's ready, frontier)).
enum class Walk {
  kScheduler,        // KAsync's own: frontier = look, ready = look + [0.25, 4)
  kStillCandidate,   // frontier = look, ready <= fl(look + 1e-6) half the time
  kLaggingFrontier,  // the frontier never moves: everyone is past it, the
                     // minimum is a candidate, and winners often hold it
  kFrontierJumps,    // the scheduler's walk, with jumps of the frontier far
                     // forward (admitting many at once) and some back
  kHugeFrontier,     // frontier in [2^32, 2^34): ready and frontier a few
                     // ulps (~1e-6) apart, exact ties at the minimum and at thr
};

TEST(KAsyncSelection, StatefulSelectionMatchesReferenceOverLongSequences) {
  const std::size_t sizes[] = {1, 2, 5, 155, 311, 312, 313, 625, 1000};
  const Walk walks[] = {Walk::kScheduler, Walk::kStillCandidate, Walk::kLaggingFrontier,
                        Walk::kFrontierJumps, Walk::kHugeFrontier};
  constexpr std::size_t kSteps = 1500;
  for (const SelectionCopy& copy : runnable_copies()) {
    SCOPED_TRACE(copy.name);
    std::mt19937_64 gen(34);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::size_t proposals = 0;
    std::size_t still_candidate = 0;  // winners whose new ready <= fl(look + 1e-6)
    std::size_t lagging = 0;          // proposals whose minimum is past the frontier
    std::size_t many_admitted = 0;    // proposals with >= 8 more candidates than the last
    std::size_t went_back = 0;        // frontier moves backward
    std::size_t huge_ties = 0;        // exact ties at the minimum (huge frontier)
    for (const Walk walk : walks) {
      for (const std::size_t n : sizes) {
        SCOPED_TRACE(testing::Message() << "walk " << static_cast<int>(walk) << " n " << n);
        const std::uint64_t seed = gen();
        std::mt19937_64 reference(seed);
        Mt19937_64 engine(seed);
        for (std::size_t skip = gen() % kBlock; skip > 0; --skip) {
          (void)reference();
          (void)engine();
        }
        double frontier = walk == Walk::kHugeFrontier
                              ? std::ldexp(1.0 + unit(gen), 32 + static_cast<int>(gen() % 2))
                              : 10.0 * unit(gen);
        const double ulp = std::nextafter(frontier, INFINITY) - frontier;
        std::vector<double> ready =
            walk == Walk::kHugeFrontier ? ready_times(n, kHugeFrontierShape, frontier, gen)
            : walk == Walk::kLaggingFrontier
                ? ready_times(n, 2, frontier, gen)  // all within 3e-6 of frontier + 1
                : ready_times(n, proposals % 4, frontier, gen);
        JitteredSelection selection(ready, copy.kernel);
        std::uint64_t certified = 0;
        std::size_t last_count = 0;
        for (std::size_t step = 0; step < kSteps; ++step, ++proposals) {
          const std::size_t count = certified_candidates(ready, frontier);
          certified += count;
          if (count >= last_count + 8) ++many_admitted;
          last_count = count;
          if (*std::min_element(ready.begin(), ready.end()) > frontier) ++lagging;
          if (walk == Walk::kHugeFrontier && tied_at_minimum(reference, ready, frontier) > 1) {
            ++huge_ties;
          }
          const core::RobotId got = selection.select(engine, frontier);
          const core::RobotId want = oracles::select_jittered(reference, ready, frontier);
          ASSERT_EQ(got, want) << "step " << step;

          const double look = std::max(ready[want], frontier);
          double next = look + 0.25 + 3.75 * unit(gen);
          switch (walk) {
            case Walk::kScheduler:
              frontier = look;
              break;
            case Walk::kStillCandidate:
              frontier = look;
              if (gen() % 2 == 0) next = look + (gen() % 4 == 0 ? 1e-6 : 1e-6 * unit(gen));
              break;
            case Walk::kLaggingFrontier:
              next = ready[want] + 1e-7 * static_cast<double>(1 + gen() % 12);
              break;
            case Walk::kFrontierJumps:
              frontier = look;
              if (gen() % 16 == 0) frontier += 2.0 * unit(gen);
              if (gen() % 32 == 0) {
                frontier -= unit(gen);
                ++went_back;
              }
              break;
            case Walk::kHugeFrontier:
              frontier = look + ulp * static_cast<double>(gen() % 2);
              next = look + ulp * static_cast<double>(gen() % 3);
              break;
          }
          if (next <= look + 1e-6) ++still_candidate;
          ready[want] = next;
          selection.reschedule(want, next);
          // The scheduler's own draws between proposals: both engines stay
          // at one stream position, and the next proposal starts at a new
          // offset inside a block.
          std::uniform_real_distribution<double> draw_a(0.0, 1.0), draw_b(0.0, 1.0);
          for (std::size_t i = gen() % 5; i > 0; --i) {
            ASSERT_EQ(draw_a(engine), draw_b(reference)) << "step " << step;
          }
        }
        // The array is exactly the certified set while m never decreases;
        // a frontier that went back leaves a superset (still exact).
        if (walk == Walk::kFrontierJumps) {
          EXPECT_GE(selection.words_tempered(), certified);
        } else {
          EXPECT_EQ(selection.words_tempered(), certified);
        }
      }
    }
    // Every walk really produced the state it is there for.
    EXPECT_GE(still_candidate, kSteps);
    EXPECT_GE(lagging, kSteps);
    EXPECT_GE(many_admitted, 100u);
    EXPECT_GE(went_back, 100u);
    EXPECT_GE(huge_ties, kSteps);
  }
  if (!checked_every_copy()) GTEST_SKIP() << "CPU lacks avx2: only the baseline copy was checked";
}

// A silent fall-back to the baseline would slow async_stream down and
// leave every result unchanged, so no other test would notice it.
TEST(KAsyncSelection, DispatcherRunsTheAvx2CopyOnAvx2Hosts) {
#if defined(__x86_64__)
  if (!__builtin_cpu_supports("avx2")) {
    EXPECT_EQ(selection_copy(), "baseline");
    EXPECT_EQ(JitteredSelection::default_kernel(), &detail::select_candidate_baseline);
    GTEST_SKIP() << "CPU lacks avx2";
  }
  EXPECT_EQ(selection_copy(), "avx2");
  EXPECT_EQ(JitteredSelection::default_kernel(), &detail::select_candidate_avx2);
#else
  EXPECT_EQ(selection_copy(), "baseline");  // the only copy built
  EXPECT_EQ(JitteredSelection::default_kernel(), &detail::select_candidate_baseline);
#endif
}

}  // namespace
}  // namespace cohesion::sched
