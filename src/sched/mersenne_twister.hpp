// Mt19937_64 — a header-only 64-bit Mersenne Twister that is
// stream-identical to std::mt19937_64: same seeding, twist and temper (the
// 10000th output of a default-seeded engine is 9981545732273789042, as the
// standard requires). It satisfies UniformRandomBitGenerator, so the std
// distributions draw from it exactly as they draw from std::mt19937_64.
//
// What it adds are two bulk paths. generate() hands out a run of outputs
// per call, and advance() skips a run of outputs while showing the caller
// each 312-word block's untempered state words, so a caller that needs
// only some outputs of the run tempers only those. Both the twist and the
// temper are straight-line loops over the state (the twist's conditional
// xor is a mask, not a branch), so GCC vectorizes them at the width of the
// function they inline into. On a shared 4-core Xeon VM (gcc 12 -O3, 2048
// outputs per call, warm cache): 0.65-0.9 ns per output inlined into an
// AVX2 function, 1.2-1.9 ns at baseline x86-64 width, against 6.5-9 ns
// through std::mt19937_64::operator(). KAsyncScheduler's robot selection
// advances by one output per robot per proposal and tempers the outputs
// of the robots that can win (sched/asynchronous.cpp).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace cohesion::sched {

class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t state_size = 312;
  static constexpr result_type default_seed = 5489u;

  Mt19937_64() : Mt19937_64(default_seed) {}
  explicit Mt19937_64(result_type seed) {
    x_[0] = seed;
    for (std::size_t i = 1; i < state_size; ++i) {
      x_[i] = kInitMultiplier * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (p_ == state_size) twist();
    return temper(x_[p_++]);
  }

  /// Writes the next `count` outputs to `out`: the values `count` calls of
  /// operator() would return, leaving the engine in the same state.
  void generate(result_type* out, std::size_t count) {
    advance(count, [out](std::size_t first, const result_type* words, std::size_t len) {
      for (std::size_t i = 0; i < len; ++i) out[first + i] = temper(words[i]);
    });
  }

  /// Moves the engine past its next `count` outputs, leaving it in the
  /// state `count` calls of operator() would, and calls
  /// visit(first, words, len) for each run of them that lies in one block:
  /// the run's outputs are temper(words[0]), ..., temper(words[len - 1]),
  /// and the run starts `first` outputs after this call's first output.
  /// The runs come in order and cover [0, count); `words` is valid only
  /// during the call.
  template <class Visit>
  void advance(std::size_t count, Visit&& visit) {
    for (std::size_t first = 0; first < count;) {
      if (p_ == state_size) twist();
      const std::size_t len = std::min(count - first, state_size - p_);
      visit(first, x_.data() + p_, len);
      p_ += len;
      first += len;
    }
  }

  /// The output a state word yields (std::mt19937_64's tempering).
  static result_type temper(result_type z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::size_t kShift = 156;  // the recurrence's middle offset m
  static constexpr result_type kMatrixA = 0xB5026F5AA96619E9ULL;
  static constexpr result_type kUpperMask = ~result_type{0} << 31;
  static constexpr result_type kLowerMask = ~kUpperMask;
  static constexpr result_type kInitMultiplier = 6364136223846793005ULL;

  /// One word of the recurrence: `word`'s upper 33 bits joined with
  /// `next`'s lower 31, shifted, xor'ed with `far` and, if odd, with A.
  static result_type recur(result_type word, result_type next, result_type far) {
    const result_type y = (word & kUpperMask) | (next & kLowerMask);
    return far ^ (y >> 1) ^ ((result_type{0} - (y & 1)) & kMatrixA);
  }

  void twist() {
    constexpr std::size_t n = state_size;
    // Words [0, n - m) read only words the loop has not rewritten yet;
    // words [n - m, n - 1) read ones rewritten m places back. Both loops
    // vectorize (dependence distance m = 156).
    for (std::size_t i = 0; i < n - kShift; ++i) x_[i] = recur(x_[i], x_[i + 1], x_[i + kShift]);
    for (std::size_t i = n - kShift; i < n - 1; ++i) {
      x_[i] = recur(x_[i], x_[i + 1], x_[i + kShift - n]);
    }
    x_[n - 1] = recur(x_[n - 1], x_[0], x_[kShift - 1]);
    p_ = 0;
  }

  std::array<result_type, state_size> x_{};
  std::size_t p_ = state_size;  // next word to temper; state_size: twist first
};

/// std::generate_canonical<double, 53> of a 64-bit engine that returned
/// `u`, without the branch libstdc++'s u64 -> double conversion takes on
/// the top bit (half of them mispredict on random words).
///
/// libstdc++ makes one engine call per double (53 <= 64 bits) and returns
/// double(u) * 2^-64, pinned below 1. Here double(u) is built exactly: each
/// 32-bit half is planted in the mantissa of 2^52 (low half) or 2^84 (high
/// half, so it counts 2^32 per unit) and the exponent's value subtracted
/// off, which is exact; the sum of the two halves then rounds once, to the
/// same nearest-even double the hardware conversion gives. Scaling by 2^-64
/// is exact. Only u >= 2^64 - 2^10 rounds up to 2^64, i.e. to 1.0, which
/// the standard's fixup maps to the largest double below 1.
inline double canonical_double(std::uint64_t u) {
  const double hi = std::bit_cast<double>(0x4530000000000000ULL | (u >> 32)) - 0x1p84;
  const double lo = std::bit_cast<double>(0x4330000000000000ULL | (u & 0xFFFFFFFFULL)) - 0x1p52;
  const double c = (hi + lo) * 0x1p-64;
  constexpr double kBelowOne = 0x1.fffffffffffffp-1;
  return c < kBelowOne ? c : kBelowOne;
}

}  // namespace cohesion::sched
