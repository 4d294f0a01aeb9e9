// Deterministic, seedable random number generation for simulations.
//
// All stochastic behaviour in the library flows through Rng so that every
// experiment is exactly reproducible from a single 64-bit seed. The core
// generator is xoshiro256**, seeded via SplitMix64 (the initialization
// recommended by the xoshiro authors).
#pragma once

#include <array>
#include <cstdint>

namespace hcrl::common {

/// SplitMix64: used to expand a single 64-bit seed into generator state.
/// Also usable standalone as a tiny, fast generator for hashing-like uses.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 — fast, high-quality 64-bit PRNG.
/// Satisfies (most of) the C++ UniformRandomBitGenerator requirements.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept { return next(); }
  result_type next() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;
  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) noexcept;
  /// Standard normal via Marsaglia polar method.
  double normal() noexcept;
  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;
  /// Exponential with given rate (mean = 1/rate).
  double exponential(double rate) noexcept;

  /// Derive an independent child generator (for per-component streams).
  Rng fork() noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace hcrl::common
