// Deterministic pseudo-random number generation.
//
// The simulator and every protocol draw randomness only through this type so
// that a run is a pure function of its seed. xoshiro256** is small, fast and
// has no global state (unlike std::mt19937 it is cheap to copy per node).
#pragma once

#include <cstdint>
#include <limits>

namespace canopus {

/// splitmix64: used to expand a single seed into xoshiro state.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Derives an independent seed from a base seed and a salt (e.g. a trial
/// index or the bit pattern of an offered rate): experiment harnesses use
/// this so every trial gets its own RNG stream regardless of the order —
/// or the thread — trials run in.
constexpr std::uint64_t derive_seed(std::uint64_t base, std::uint64_t salt) {
  std::uint64_t s = base ^ (salt * 0x9e3779b97f4a7c15ULL);
  std::uint64_t out = splitmix64(s);
  return out ^ splitmix64(s);
}

/// xoshiro256** generator. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Rng(std::uint64_t seed = 0x5eed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  constexpr std::uint64_t below(std::uint64_t bound) {
    // Lemire-style rejection-free enough for simulation purposes.
    return (*this)() % bound;
  }

  /// Uniform double in [0, 1).
  constexpr double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean);

  /// Poisson-distributed count with the given mean (0 for mean <= 0):
  /// Knuth's product method below a mean of 32, a rounded normal
  /// approximation above.
  std::uint64_t poisson(double mean);

  /// Derive an independent stream (e.g. one per node) from this one.
  constexpr Rng fork() { return Rng((*this)()); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

}  // namespace canopus
