#include "src/common/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace hcrl::common {
namespace {

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  SplitMix64 a(1), b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, SameSeedSameSequence) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next() == b.next()) ? 1 : 0;
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformIsInHalfOpenUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsNearHalf) {
  Rng rng(7);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(2, 6);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 6);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all of {2,3,4,5,6} appear
}

TEST(Rng, UniformIntSingletonRange) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, UniformIntNegativeRange) {
  Rng rng(15);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-10, -5);
    EXPECT_GE(v, -10);
    EXPECT_LE(v, -5);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(21);
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalWithParamsShiftsAndScales) {
  Rng rng(23);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, ExponentialMeanIsInverseRate) {
  Rng rng(25);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(Rng, ExponentialIsPositive) {
  Rng rng(27);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.exponential(3.0), 0.0);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(37);
  Rng child = a.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next() == child.next()) ? 1 : 0;
  EXPECT_LT(equal, 3);
}

TEST(Rng, SatisfiesUniformRandomBitGeneratorBounds) {
  EXPECT_EQ(Rng::min(), 0u);
  EXPECT_EQ(Rng::max(), ~std::uint64_t{0});
}

}  // namespace
}  // namespace hcrl::common
