#include "src/common/rng.hpp"

#include <cassert>
#include <cmath>

namespace hcrl::common {

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& w : s_) w = sm.next();
}

Rng::result_type Rng::next() noexcept {
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

double Rng::uniform() noexcept {
  // 53 random mantissa bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next());  // full range
  // Lemire's nearly-divisionless bounded sampling (rejection for exactness).
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * span;
  auto l = static_cast<std::uint64_t>(m);
  if (l < span) {
    const std::uint64_t t = -span % span;
    while (l < t) {
      x = next();
      m = static_cast<__uint128_t>(x) * span;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return lo + static_cast<std::int64_t>(m >> 64);
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * factor;
  has_cached_normal_ = true;
  return u * factor;
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::exponential(double rate) noexcept {
  assert(rate > 0.0);
  // 1 - uniform() is in (0, 1], so the log is finite.
  return -std::log(1.0 - uniform()) / rate;
}

Rng Rng::fork() noexcept { return Rng(next() ^ 0xdeadbeefcafef00dULL); }

}  // namespace hcrl::common
