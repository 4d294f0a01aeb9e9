#include "src/sim/types.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace hcrl::sim {
namespace {

TEST(ResourceVector, ConstructionVariants) {
  ResourceVector a(3, 0.5);
  EXPECT_EQ(a.dims(), 3u);
  EXPECT_DOUBLE_EQ(a[2], 0.5);
  ResourceVector b{0.1, 0.2};
  EXPECT_EQ(b.dims(), 2u);
  EXPECT_DOUBLE_EQ(b[1], 0.2);
}

TEST(ResourceVector, AddSubtractRoundTrip) {
  ResourceVector a{0.5, 0.6, 0.7};
  const ResourceVector b{0.1, 0.2, 0.3};
  a.add(b);
  EXPECT_DOUBLE_EQ(a[0], 0.6);
  a.subtract(b);
  EXPECT_NEAR(a[0], 0.5, 1e-12);
  EXPECT_NEAR(a[2], 0.7, 1e-12);
}

TEST(ResourceVector, DimMismatchThrows) {
  ResourceVector a(3);
  const ResourceVector b(2);
  EXPECT_THROW(a.add(b), std::invalid_argument);
  EXPECT_THROW(a.subtract(b), std::invalid_argument);
  EXPECT_THROW(a.fits(b), std::invalid_argument);
  // A larger vector mismatches too, even though both fit the inline storage.
  const ResourceVector c(4);
  EXPECT_THROW(a.add(c), std::invalid_argument);
  EXPECT_THROW(a.subtract(c), std::invalid_argument);
  EXPECT_THROW(a.fits(c), std::invalid_argument);
}

TEST(ResourceVector, FitsIsComponentwise) {
  const ResourceVector cap{0.5, 0.5};
  EXPECT_TRUE(cap.fits({0.5, 0.4}));
  EXPECT_FALSE(cap.fits({0.51, 0.1}));
  EXPECT_FALSE(cap.fits({0.1, 0.6}));
}

TEST(ResourceVector, FitsToleratesFloatNoise) {
  ResourceVector cap{1.0, 1.0};
  // Simulate accumulated noise from add/subtract cycles.
  cap.subtract({1e-12, 0.0});
  EXPECT_TRUE(cap.fits({1.0, 1.0}));
}

TEST(ResourceVector, FourDimensionsAcceptedFiveRejected) {
  static_assert(ResourceVector::kMaxDims == 4);
  const ResourceVector four{0.1, 0.2, 0.3, 0.4};
  EXPECT_EQ(four.dims(), 4u);
  EXPECT_DOUBLE_EQ(four[3], 0.4);
  EXPECT_EQ(ResourceVector(4, 1.0).dims(), 4u);

  auto expect_limit_error = [](auto&& construct) {
    try {
      construct();
      ADD_FAILURE() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("limit of 4"), std::string::npos) << msg;
    }
  };
  expect_limit_error([] { return ResourceVector(5); });
  expect_limit_error([] { return ResourceVector{0.1, 0.1, 0.1, 0.1, 0.1}; });
}

TEST(ResourceVector, IndexPastDimsThrowsOutOfRange) {
  ResourceVector v{0.1, 0.2};
  const ResourceVector& cv = v;
  EXPECT_DOUBLE_EQ(cv[1], 0.2);
  // Index 2 is inside the inline storage but past dims(): still an error.
  EXPECT_THROW((void)cv[2], std::out_of_range);
  EXPECT_THROW(v[2] = 1.0, std::out_of_range);
  EXPECT_THROW((void)cv[ResourceVector::kMaxDims], std::out_of_range);
  EXPECT_THROW((void)ResourceVector()[0], std::out_of_range);
}

TEST(ResourceVector, CopiesAreIndependent) {
  // Inline storage: copying a vector or a Job touches no heap block.
  static_assert(std::is_trivially_copyable_v<ResourceVector>);
  static_assert(std::is_trivially_copyable_v<Job>);
  ResourceVector a{0.1, 0.2, 0.3};
  ResourceVector b = a;
  b[0] = 0.9;
  b.add({0.1, 0.1, 0.1});
  EXPECT_DOUBLE_EQ(a[0], 0.1);
  EXPECT_DOUBLE_EQ(a[2], 0.3);
  a = b;
  a.clamp(0.0, 0.5);
  EXPECT_DOUBLE_EQ(b[0], 1.0);
  EXPECT_DOUBLE_EQ(a[0], 0.5);

  Job j;
  j.demand = ResourceVector{0.4, 0.4, 0.4};
  Job k = j;
  k.demand.subtract({0.1, 0.1, 0.1});
  EXPECT_DOUBLE_EQ(j.demand[1], 0.4);
  EXPECT_NEAR(k.demand[1], 0.3, 1e-12);
}

TEST(ResourceVector, LanesPastDimsStayZero) {
  const auto expect_zero_tail = [](const ResourceVector& v, const char* what) {
    SCOPED_TRACE(what);
    for (std::size_t i = v.dims(); i < ResourceVector::kMaxDims; ++i) {
      EXPECT_EQ(v.lanes()[i], 0.0) << "lane " << i;
      EXPECT_FALSE(std::signbit(v.lanes()[i])) << "lane " << i;
    }
  };
  for (std::size_t dims = 0; dims <= ResourceVector::kMaxDims; ++dims) {
    ResourceVector v(dims, 0.7);
    expect_zero_tail(v, "fill constructor");
    for (std::size_t i = 0; i < dims; ++i) EXPECT_EQ(v.lanes()[i], 0.7);
    v.add(ResourceVector(dims, 0.25));
    expect_zero_tail(v, "add");
    v.subtract(ResourceVector(dims, 2.0));
    expect_zero_tail(v, "subtract");
    v.clamp(0.5, 1.0);  // a lane past dims clamped to [0.5, 1] would read 0.5
    expect_zero_tail(v, "clamp");
    const ResourceVector copy = v;
    expect_zero_tail(copy, "copy");
    ResourceVector assigned{0.9, 0.9, 0.9, 0.9};
    assigned = v;
    expect_zero_tail(assigned, "copy assignment over a wider vector");
  }
  expect_zero_tail(ResourceVector{}, "default");
  expect_zero_tail(ResourceVector{0.3, 0.4}, "initializer list");
}

TEST(ResourceVector, MaxComponentAndClamp) {
  ResourceVector v{0.2, -0.1, 1.4};
  EXPECT_DOUBLE_EQ(v.max_component(), 1.4);
  v.clamp(0.0, 1.0);
  EXPECT_DOUBLE_EQ(v[1], 0.0);
  EXPECT_DOUBLE_EQ(v[2], 1.0);
}

TEST(ResourceVector, ToStringMentionsAllComponents) {
  const ResourceVector v{0.25, 0.75};
  const std::string s = v.to_string();
  EXPECT_NE(s.find("0.25"), std::string::npos);
  EXPECT_NE(s.find("0.75"), std::string::npos);
}

TEST(Job, ValidationRules) {
  Job j;
  j.id = 1;
  j.arrival = 10.0;
  j.duration = 60.0;
  j.demand = ResourceVector{0.1, 0.2, 0.3};
  EXPECT_NO_THROW(j.validate(3));
  EXPECT_THROW(j.validate(2), std::invalid_argument);  // wrong dims

  Job bad = j;
  bad.duration = 0.0;
  EXPECT_THROW(bad.validate(3), std::invalid_argument);
  bad = j;
  bad.arrival = -1.0;
  EXPECT_THROW(bad.validate(3), std::invalid_argument);
  bad = j;
  bad.demand[1] = 1.5;
  EXPECT_THROW(bad.validate(3), std::invalid_argument);
  bad = j;
  bad.demand[0] = -0.1;
  EXPECT_THROW(bad.validate(3), std::invalid_argument);
}

TEST(JobRecord, LatencyAndWait) {
  JobRecord r;
  r.arrival = 10.0;
  r.start = 25.0;
  r.finish = 85.0;
  EXPECT_DOUBLE_EQ(r.latency(), 75.0);
  EXPECT_DOUBLE_EQ(r.wait(), 15.0);
}

TEST(TimeConstants, AreConsistent) {
  EXPECT_DOUBLE_EQ(kSecondsPerDay, 24.0 * kSecondsPerHour);
  EXPECT_DOUBLE_EQ(kSecondsPerWeek, 7.0 * kSecondsPerDay);
}

}  // namespace
}  // namespace hcrl::sim
