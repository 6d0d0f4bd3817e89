// Deterministic, fast pseudo-random number generation for Monte Carlo runs.
//
// We use xoshiro256** (Blackman & Vigna) rather than std::mt19937_64: it is
// ~2x faster, has a tiny state, and supports cheap stream splitting via
// jump(), which keeps multi-configuration sweeps reproducible regardless of
// evaluation order.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

namespace qec {

/// xoshiro256** PRNG. Satisfies std::uniform_random_bit_generator.
class Xoshiro256ss {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit state words from a single seed via SplitMix64,
  /// which guarantees a non-zero, well-mixed state for any seed value.
  explicit Xoshiro256ss(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  // The per-draw members are defined inline: noise sampling calls them once
  // per bit, and an out-of-line call per bit costs more than the draw.
  result_type operator()() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Advances the stream by 2^128 steps; use to derive independent
  /// sub-streams for parallel or per-configuration use.
  void jump();

  /// Uniform double in [0, 1): the top 53 bits of one draw, times 2^-53.
  double uniform() { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }

  /// Bernoulli trial with success probability p (clamped to [0, 1]).
  /// p <= 0 and p >= 1 consume no draw; NaN draws and never succeeds.
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Integer form of `uniform() < p`, for loops that hoist the
  /// probability: uniform() < p holds exactly when
  /// (draw >> 11) < bernoulli_threshold(p). Exact because u * 2^-53 is
  /// exact for every integer u < 2^53, so u * 2^-53 < p iff u < p * 2^53
  /// iff u < ceil(p * 2^53). Returns 0 for p <= 0 and NaN (never), 2^53
  /// for p >= 1 (always). bernoulli() itself skips the draw when
  /// bernoulli_draws(p) is false; hoisted loops must do the same to keep
  /// the stream.
  static std::uint64_t bernoulli_threshold(double p) {
    if (!(p > 0.0)) return 0;  // also NaN
    if (p >= 1.0) return kUnitThreshold;
    return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
  }

  /// Whether bernoulli(p) consumes a draw (false for p <= 0 and p >= 1).
  static bool bernoulli_draws(double p) { return !(p <= 0.0) && !(p >= 1.0); }

  /// bernoulli_threshold() of any p >= 1: every 53-bit draw is below it.
  static constexpr std::uint64_t kUnitThreshold = std::uint64_t{1} << 53;

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t below(std::uint64_t n);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_;
};

/// SplitMix64 step; exposed for seeding/derivation in tests.
std::uint64_t splitmix64(std::uint64_t& state);

}  // namespace qec
