#include "src/common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace hcrl::common {
namespace {

TEST(Percentile, EmptyAndSingle) {
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(percentile(empty, 0.95), 0.0);
  std::vector<double> one = {7.0};
  EXPECT_DOUBLE_EQ(percentile(one, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile(one, 1.0), 7.0);
}

TEST(Percentile, NearestRankOnKnownData) {
  // percentile() selects element floor(q * (n-1)) — the convention the
  // runner's latency_p95_s / latency_p99_s tail metrics are defined by.
  std::vector<double> xs = {9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0, 0.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 4.0);   // floor(0.5 * 9) = 4
  EXPECT_DOUBLE_EQ(percentile(xs, 0.95), 8.0);  // floor(0.95 * 9) = 8
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 9.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 7.0), 9.0);  // out-of-range q clamps
}

TEST(QuantileFromBins, RequiresMatchingShapes) {
  const std::vector<double> bounds = {1.0, 2.0};
  const std::vector<std::uint64_t> bad = {1, 2};  // needs bounds.size() + 1
  EXPECT_THROW(quantile_from_bins(bad, bounds, 0.5), std::invalid_argument);
  EXPECT_THROW(quantile_from_bins(bad, {}, 0.5), std::invalid_argument);
}

TEST(QuantileFromBins, EmptyAndInterpolation) {
  const std::vector<double> bounds = {1.0, 2.0, 4.0};
  const std::vector<std::uint64_t> empty = {0, 0, 0, 0};
  EXPECT_DOUBLE_EQ(quantile_from_bins(empty, bounds, 0.5), 0.0);

  const std::vector<std::uint64_t> bins = {0, 8, 0, 2};
  // p50: target 5 of 10 lands in [1,2) at fraction 5/8.
  EXPECT_DOUBLE_EQ(quantile_from_bins(bins, bounds, 0.5), 1.0 + 5.0 / 8.0);
  // p95 lands in the overflow bin, which collapses onto bounds.back().
  EXPECT_DOUBLE_EQ(quantile_from_bins(bins, bounds, 0.95), 4.0);
  // Underflow samples likewise collapse onto bounds.front().
  const std::vector<std::uint64_t> under = {4, 0, 0, 0};
  EXPECT_DOUBLE_EQ(quantile_from_bins(under, bounds, 0.5), 1.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // population variance
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, ResetClears) {
  RunningStats s;
  s.add(1.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
}

TEST(TimeWeightedValue, ConstantSignalIntegral) {
  TimeWeightedValue v;
  v.set(0.0, 5.0);
  EXPECT_DOUBLE_EQ(v.integral(10.0), 50.0);
}

TEST(TimeWeightedValue, PiecewiseIntegralIsExact) {
  TimeWeightedValue v;
  v.set(0.0, 1.0);
  v.set(2.0, 3.0);   // [0,2) at 1 -> 2
  v.set(5.0, 0.0);   // [2,5) at 3 -> 9
  EXPECT_DOUBLE_EQ(v.integral(5.0), 11.0);
  EXPECT_DOUBLE_EQ(v.integral(8.0), 11.0);  // zero afterwards
}

TEST(TimeWeightedValue, NonZeroStartTime) {
  TimeWeightedValue v;
  v.set(10.0, 2.0);
  EXPECT_DOUBLE_EQ(v.integral(15.0), 10.0);
}

TEST(TimeWeightedValue, RepeatedSetAtSameTime) {
  TimeWeightedValue v;
  v.set(0.0, 1.0);
  v.set(1.0, 2.0);
  v.set(1.0, 5.0);  // replaces the value with zero elapsed time
  EXPECT_DOUBLE_EQ(v.integral(2.0), 1.0 + 5.0);
}

TEST(TimeWeightedValue, ThrowsOnBackwardsTime) {
  TimeWeightedValue v;
  v.set(5.0, 1.0);
  EXPECT_THROW(v.set(4.0, 2.0), std::invalid_argument);
  EXPECT_THROW(v.integral(4.0), std::invalid_argument);
}

TEST(TimeWeightedValue, EmptyBehaviour) {
  TimeWeightedValue v;
  EXPECT_DOUBLE_EQ(v.integral(100.0), 0.0);
  EXPECT_DOUBLE_EQ(v.current(), 0.0);
}

TEST(Histogram, CountsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);    // bin 0
  h.add(9.9);    // bin 4
  h.add(-5.0);   // clamps to bin 0
  h.add(100.0);  // clamps to bin 4
  h.add(5.0);    // bin 2
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(2), 1u);
  EXPECT_EQ(h.bin_count(4), 2u);
}

TEST(Histogram, BinEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(4), 8.0);
}

TEST(Histogram, InvalidConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 5), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(2.0, 1.0, 3), std::invalid_argument);
}

}  // namespace
}  // namespace hcrl::common
