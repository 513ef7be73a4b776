// Deterministic random number generation.
//
// The whole reproduction is seeded: the synthetic cluster trace, the RL
// exploration, and every experiment must produce identical numbers on every
// platform and across reruns. std::mt19937 would be deterministic too, but
// the std distributions (<random>) are NOT specified bit-exactly across
// standard libraries, so we implement both the engine (xoshiro256++ seeded
// via SplitMix64) and the distributions we need ourselves.
#ifndef AER_COMMON_RNG_H_
#define AER_COMMON_RNG_H_

#include <cstdint>
#include <span>

#include "common/check.h"

namespace aer {

// SplitMix64: used to expand a single 64-bit seed into engine state and to
// derive independent child seeds (e.g. one RNG stream per machine).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

// Derives the seed of an independent child stream from a master seed and a
// stable stream identifier (an ErrorTypeId, a bootstrap resample index, a
// replication number, ...). The result depends on nothing but the two
// arguments — not on how many sibling streams exist, not on the order they
// are created in, and not on which thread asks — which is what makes
// sharded training and resampling bit-identical to their serial
// counterparts (docs/PARALLELISM.md). The mapping is frozen: it is the
// golden-ratio XOR the trainers have always used, so historical trained
// artifacts and recorded bench checksums stay reproducible. Collisions
// between (master_seed, stream_id) pairs are possible in principle (XOR is
// linear) but irrelevant here: within one run the master seed is fixed and
// distinct stream ids always map to distinct seeds.
inline std::uint64_t DeriveStream(std::uint64_t master_seed,
                                  std::uint64_t stream_id) {
  return master_seed ^ (0x9e3779b97f4a7c15ULL * (stream_id + 1));
}

// xoshiro256++ 1.0 (Blackman & Vigna). Fast, high-quality, 2^256-1 period.
class Rng {
 public:
  // Satisfies UniformRandomBitGenerator so it can also drive std algorithms
  // (e.g. std::shuffle) deterministically at the engine level.
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Rng(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.Next();
  }

  result_type operator()() { return Next(); }

  std::uint64_t Next() {
    const std::uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  // Derives an independent child generator; used to give each simulated
  // machine / each training run its own stream so adding one consumer does
  // not perturb the draws of the others.
  Rng Fork() { return Rng(Next() ^ 0xa02bdbf7bb3c0a7ULL); }

  // Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  // Uniform integer in [0, bound) via Lemire's multiply-shift (unbiased).
  std::uint64_t NextBounded(std::uint64_t bound) {
    AER_CHECK_GT(bound, 0u);
    while (true) {
      const std::uint64_t x = Next();
      const __uint128_t m = static_cast<__uint128_t>(x) * bound;
      const std::uint64_t lo = static_cast<std::uint64_t>(m);
      if (lo >= bound || lo >= (-bound) % bound) {
        return static_cast<std::uint64_t>(m >> 64);
      }
    }
  }

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t NextInt(std::int64_t lo, std::int64_t hi) {
    AER_CHECK_LE(lo, hi);
    return lo + static_cast<std::int64_t>(
                    NextBounded(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  // Bernoulli trial.
  bool NextBool(double p) { return NextDouble() < p; }

  // Exponential with the given mean (inverse-CDF method).
  double NextExponential(double mean);

  // Log-normal parameterized by the *target* mean and a shape sigma (of the
  // underlying normal). Used for repair-action durations, which are
  // right-skewed in real logs.
  double NextLogNormalWithMean(double mean, double sigma);

  // Samples an index from unnormalized non-negative weights.
  std::size_t NextWeighted(std::span<const double> weights);

 private:
  // Standard normal via Box-Muller (no cached second value: determinism over
  // micro-efficiency).
  double NextGaussian();

  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace aer

#endif  // AER_COMMON_RNG_H_
