// KAsync's batched robot selection against its scalar reference, and the
// two pieces it is built from: the bulk Mersenne Twister (stream-identical
// to std::mt19937_64) and the branch-free generate_canonical conversion.
// Every compiled copy of the selection is checked: the baseline always,
// the AVX2 copy where the CPU has AVX2. Part of the certification battery
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
  std::vector<std::uint64_t> out(10000);
  bulk.generate(out.data(), out.size());
  EXPECT_EQ(out.back(), 9981545732273789042ULL);
}

TEST(Mt19937_64, MatchesStdEngineWithBulkCallsAtEveryBlockOffset) {
  constexpr std::size_t kOutputs = 1'000'000;
  for (const std::uint64_t seed : {0ULL, 1ULL, 11ULL, 5489ULL, ~0ULL}) {
    std::mt19937_64 reference(seed);
    Mt19937_64 engine(seed);
    std::vector<std::uint64_t> buf(3 * kBlock);
    std::bitset<kBlock> bulk_offsets;
    std::size_t pos = 0;
    for (std::size_t segment = 0; pos < kOutputs; ++segment) {
      // Scalar calls up to the next target offset, then one bulk call whose
      // length (0 to ~2 blocks) walks across block boundaries.
      const std::size_t scalar_run = (segment + kBlock - pos % kBlock) % kBlock;
      for (std::size_t i = 0; i < scalar_run && pos < kOutputs; ++i, ++pos) {
        ASSERT_EQ(engine(), reference()) << "seed " << seed << " output " << pos;
      }
      if (pos == kOutputs) break;
      bulk_offsets.set(pos % kBlock);
      const std::size_t len = std::min((segment * 131) % (2 * kBlock + 7), kOutputs - pos);
      engine.generate(buf.data(), len);
      for (std::size_t i = 0; i < len; ++i, ++pos) {
        ASSERT_EQ(buf[i], reference()) << "seed " << seed << " output " << pos;
      }
    }
    EXPECT_TRUE(bulk_offsets.all()) << "seed " << seed;
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

using SelectFn = core::RobotId (*)(Mt19937_64&, std::span<const double>, double);

struct SelectionCopy {
  const char* name;
  SelectFn select;
};

/// The copies this host can run: the baseline always, AVX2 where the CPU
/// has it, and the dispatching select_jittered itself.
std::vector<SelectionCopy> runnable_copies() {
  std::vector<SelectionCopy> copies = {{"baseline", detail::select_jittered_baseline},
                                       {"dispatch", select_jittered}};
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) copies.push_back({"avx2", detail::select_jittered_avx2});
#endif
  return copies;
}

TEST(KAsyncSelection, MatchesScalarReferenceAcrossBlockBoundaries) {
  const std::size_t sizes[] = {1, 2, 3, 155, 156, 157, 311, 312, 313, 624, 625, 2048, 4097};
  const std::vector<SelectionCopy> copies = runnable_copies();
  for (const SelectionCopy& copy : copies) {
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

        ASSERT_EQ(copy.select(engine, ready, frontier),
                  oracles::select_jittered(reference, ready, frontier))
            << "case " << cases << " n " << n << " skip " << skip;
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
#if defined(__x86_64__)
  if (!__builtin_cpu_supports("avx2")) {
    GTEST_SKIP() << "CPU lacks avx2: only the baseline copy was checked";
  }
#endif
}

// A silent fall-back to the baseline would cost ~1.4x on async_stream and
// leave every result unchanged, so no other test would notice it.
TEST(KAsyncSelection, DispatcherRunsTheAvx2CopyOnAvx2Hosts) {
#if defined(__x86_64__)
  if (!__builtin_cpu_supports("avx2")) {
    EXPECT_EQ(selection_copy(), "baseline");
    GTEST_SKIP() << "CPU lacks avx2";
  }
  EXPECT_EQ(selection_copy(), "avx2");
#else
  EXPECT_EQ(selection_copy(), "baseline");  // the only copy built
#endif
}

}  // namespace
}  // namespace cohesion::sched
