// Exploration schedules for epsilon-greedy policies.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace hcrl::rl {

/// Epsilon as a function of the step counter: exponential decay from
/// `start` toward `end`, so every value lies between the two.
class EpsilonSchedule {
 public:
  /// eps(t) = end + (start - end) * 0.5^(t / half_life).
  static EpsilonSchedule exponential(double start, double end, std::int64_t half_life) {
    if (!(start >= 0.0 && start <= 1.0 && end >= 0.0 && end <= 1.0)) {
      throw std::invalid_argument("epsilon out of [0,1]");
    }
    if (half_life <= 0) throw std::invalid_argument("epsilon half-life must be > 0");
    return EpsilonSchedule(start, end, half_life);
  }

  double value(std::int64_t step) const {
    const double decay =
        std::pow(0.5, static_cast<double>(step) / static_cast<double>(half_life_));
    return end_ + (start_ - end_) * decay;
  }

 private:
  EpsilonSchedule(double start, double end, std::int64_t half_life)
      : start_(start), end_(end), half_life_(half_life) {}

  double start_;
  double end_;
  std::int64_t half_life_;
};

}  // namespace hcrl::rl
