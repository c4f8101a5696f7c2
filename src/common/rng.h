// Deterministic pseudo-random number generation for the simulator.
//
// Every stochastic component (topology generation, radio loss, sensor
// sampling) draws from an explicitly-seeded Rng so whole experiment runs are
// reproducible from a single seed. We use xoshiro256** seeded via SplitMix64,
// which is fast, has a 256-bit state, and passes BigCrush — std::mt19937 is
// deliberately avoided because its seeding is easy to get wrong and its state
// is large.

#ifndef ASPEN_COMMON_RNG_H_
#define ASPEN_COMMON_RNG_H_

#include <cstdint>

namespace aspen {

/// \brief xoshiro256** PRNG with SplitMix64 seeding.
class Rng {
 public:
  /// Seeds the generator; equal seeds yield equal streams.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL) { Seed(seed); }

  /// Re-seeds the generator.
  void Seed(uint64_t seed);

  /// Next raw 64-bit output.
  uint64_t Next64();

  /// Uniform integer in [0, bound). bound must be > 0. Uses rejection
  /// sampling (Lemire) to avoid modulo bias.
  uint64_t UniformInt(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Standard normal via Box–Muller (no cached spare; stateless per call
  /// apart from the generator stream).
  double Normal(double mean, double stddev);

 private:
  uint64_t s_[4];
};

}  // namespace aspen

#endif  // ASPEN_COMMON_RNG_H_
