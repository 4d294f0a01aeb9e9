#include "src/rl/schedule.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace hcrl::rl {
namespace {

// Tests hold epsilon fixed with equal endpoints; the decay term is then
// exactly zero at every step.
TEST(EpsilonSchedule, EqualEndpointsHoldExactly) {
  for (const double e : {0.0, 0.3, 1.0}) {
    const auto s = EpsilonSchedule::exponential(e, e, 1);
    EXPECT_EQ(s.value(0), e);
    EXPECT_EQ(s.value(7), e);
    EXPECT_EQ(s.value(1000000), e);
  }
}

TEST(EpsilonSchedule, ExponentialHalfLife) {
  const auto s = EpsilonSchedule::exponential(1.0, 0.0, 10);
  EXPECT_DOUBLE_EQ(s.value(0), 1.0);
  EXPECT_NEAR(s.value(10), 0.5, 1e-12);
  EXPECT_NEAR(s.value(20), 0.25, 1e-12);
}

TEST(EpsilonSchedule, ExponentialApproachesEnd) {
  const auto s = EpsilonSchedule::exponential(0.8, 0.05, 100);
  EXPECT_NEAR(s.value(10000), 0.05, 1e-6);
}

TEST(EpsilonSchedule, InvalidArgumentsThrow) {
  EXPECT_THROW(EpsilonSchedule::exponential(-0.1, 0.1, 10), std::invalid_argument);
  EXPECT_THROW(EpsilonSchedule::exponential(1.1, 0.1, 10), std::invalid_argument);
  EXPECT_THROW(EpsilonSchedule::exponential(0.5, 0.1, 0), std::invalid_argument);
  EXPECT_THROW(EpsilonSchedule::exponential(0.5, 0.1, -5), std::invalid_argument);
  EXPECT_THROW(EpsilonSchedule::exponential(0.5, -0.1, 10), std::invalid_argument);
  EXPECT_THROW(EpsilonSchedule::exponential(0.5, 1.5, 10), std::invalid_argument);
  EXPECT_THROW(EpsilonSchedule::exponential(std::nan(""), 0.1, 10), std::invalid_argument);
}

TEST(EpsilonSchedule, ValuesAlwaysWithinEndpoints) {
  const auto s = EpsilonSchedule::exponential(0.9, 0.1, 500);
  for (std::int64_t t = 0; t <= 5000; t += 37) {
    const double v = s.value(t);
    EXPECT_GE(v, 0.1 - 1e-12);
    EXPECT_LE(v, 0.9 + 1e-12);
  }
}

}  // namespace
}  // namespace hcrl::rl
