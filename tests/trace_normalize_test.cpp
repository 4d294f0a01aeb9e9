// Normalization pipeline edge cases: messy adapter output in, strict
// simulator-ready rows out, with every repair counted.
#include "src/workload/trace/normalize.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "src/workload/trace_io.hpp"

namespace hcrl::workload::trace {
namespace {

sim::Job make_job(double arrival, double duration, double cpu = 0.1, double mem = 0.1,
                  double disk = 0.01) {
  sim::Job j;
  j.arrival = arrival;
  j.duration = duration;
  j.demand = sim::ResourceVector{cpu, mem, disk};
  return j;
}

/// Pass-through options: no duration clip, no demand repair beyond a
/// vanishing floor — isolates the stage under test.
NormalizeOptions loose() {
  NormalizeOptions o;
  o.min_duration_s = std::numeric_limits<double>::min();
  o.max_duration_s = std::numeric_limits<double>::infinity();
  o.resource_floor = std::numeric_limits<double>::min();
  return o;
}

TEST(Normalize, SortsRebasesAndRenumbers) {
  std::vector<sim::Job> jobs = {make_job(5000.0, 60.0), make_job(4000.0, 30.0),
                                make_job(4500.0, 10.0)};
  NormalizeReport report;
  const auto out = normalize(jobs, loose(), &report);

  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0].arrival, 0.0);    // rebased to t = 0
  EXPECT_DOUBLE_EQ(out[1].arrival, 500.0);  // 4500 - 4000
  EXPECT_DOUBLE_EQ(out[2].arrival, 1000.0);
  EXPECT_DOUBLE_EQ(out[0].duration, 30.0);  // the 4000 s arrival sorted first
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].id, static_cast<sim::JobId>(i));
  }
  EXPECT_EQ(report.rows_in, 3u);
  EXPECT_EQ(report.rows_out, 3u);
}

TEST(Normalize, DropsZeroDurationAndNonFiniteRows) {
  std::vector<sim::Job> jobs = {
      make_job(0.0, 60.0),
      make_job(1.0, 0.0),                                        // zero duration
      make_job(2.0, -5.0),                                       // negative duration
      make_job(3.0, std::numeric_limits<double>::quiet_NaN()),   // NaN duration
      make_job(std::numeric_limits<double>::infinity(), 60.0),   // inf arrival
      make_job(5.0, 60.0, std::nan("")),                         // NaN demand
      make_job(6.0, 60.0),
  };
  NormalizeReport report;
  const auto out = normalize(jobs, loose(), &report);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(report.dropped_invalid, 5u);
}

TEST(Normalize, DropsRowsWithMinorityDims) {
  std::vector<sim::Job> jobs = {make_job(0.0, 60.0), make_job(1.0, 60.0)};
  sim::Job two_dim;
  two_dim.arrival = 2.0;
  two_dim.duration = 60.0;
  two_dim.demand = sim::ResourceVector{0.1, 0.1};
  jobs.push_back(two_dim);
  NormalizeReport report;
  const auto out = normalize(jobs, loose(), &report);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(report.dropped_invalid, 1u);
}

TEST(Normalize, DropsExactDuplicates) {
  std::vector<sim::Job> jobs = {make_job(10.0, 60.0), make_job(10.0, 60.0),
                                make_job(10.0, 61.0)};  // same arrival, not a dup
  NormalizeReport report;
  const auto out = normalize(jobs, loose(), &report);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(report.dropped_duplicate, 1u);
}

TEST(Normalize, DropsDuplicatesInterleavedAtOneTimestamp) {
  // Event logs repeat rows at identical timestamps with other rows in
  // between; the full-row sort key must still bring them together.
  std::vector<sim::Job> jobs = {make_job(10.0, 60.0, 0.1), make_job(10.0, 61.0, 0.2),
                                make_job(10.0, 60.0, 0.1)};
  NormalizeReport report;
  const auto out = normalize(jobs, loose(), &report);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(report.dropped_duplicate, 1u);
}

TEST(Normalize, WindowSlicesOnRebasedTimeAndRebasesAgain) {
  std::vector<sim::Job> jobs;
  for (int i = 0; i < 10; ++i) jobs.push_back(make_job(1000.0 + 100.0 * i, 60.0));
  NormalizeOptions o = loose();
  o.window_start_s = 300.0;  // rebased arrivals are 0, 100, ..., 900
  o.window_end_s = 700.0;
  NormalizeReport report;
  const auto out = normalize(jobs, o, &report);
  ASSERT_EQ(out.size(), 4u);  // 300, 400, 500, 600
  EXPECT_DOUBLE_EQ(out[0].arrival, 0.0);
  EXPECT_DOUBLE_EQ(out[3].arrival, 300.0);
  EXPECT_EQ(report.dropped_window, 6u);
}

TEST(Normalize, DownsamplingIsDeterministicAndExact) {
  std::vector<sim::Job> jobs;
  for (int i = 0; i < 500; ++i) jobs.push_back(make_job(i * 10.0, 60.0 + i));
  NormalizeOptions o = loose();
  o.max_jobs = 120;
  o.sample_seed = 7;
  NormalizeReport report;
  const auto a = normalize(jobs, o, &report);
  const auto b = normalize(jobs, o);
  ASSERT_EQ(a.size(), 120u);
  EXPECT_EQ(report.dropped_sampled, 380u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].duration, b[i].duration);  // bit-identical reruns
    if (i > 0) {
      EXPECT_GE(a[i].arrival, a[i - 1].arrival);  // order preserved
    }
  }
  // A different seed keeps a different subset.
  o.sample_seed = 8;
  const auto c = normalize(jobs, o);
  ASSERT_EQ(c.size(), 120u);
  bool any_different = false;
  for (std::size_t i = 0; i < a.size(); ++i) any_different |= a[i].duration != c[i].duration;
  EXPECT_TRUE(any_different);
}

TEST(Normalize, ClampsOutOfRangeResources) {
  std::vector<sim::Job> jobs = {make_job(0.0, 60.0, 0.0, 2.5, 0.5),
                                make_job(1.0, 60.0, 0.5, 0.5, 0.01)};
  NormalizeOptions o = loose();
  o.resource_floor = 0.005;
  o.resource_cap = 1.0;
  NormalizeReport report;
  const auto out = normalize(jobs, o, &report);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0].demand[0], 0.005);  // floored
  EXPECT_DOUBLE_EQ(out[0].demand[1], 1.0);    // capped
  EXPECT_EQ(report.clamped_demands, 1u);      // one job touched, counted once
}

TEST(Normalize, RescalePeakMapsLargestComponent) {
  std::vector<sim::Job> jobs = {make_job(0.0, 60.0, 4.0, 2.0, 1.0),
                                make_job(1.0, 60.0, 2.0, 1.0, 1.0)};
  NormalizeOptions o = loose();
  o.rescale_peak = 0.5;
  NormalizeReport report;
  const auto out = normalize(jobs, o, &report);
  EXPECT_DOUBLE_EQ(report.rescale_factor, 0.125);  // 0.5 / 4.0
  EXPECT_DOUBLE_EQ(out[0].demand[0], 0.5);
  EXPECT_DOUBLE_EQ(out[1].demand[0], 0.25);
}

TEST(Normalize, ClampsDurationsLikeThePaper) {
  std::vector<sim::Job> jobs = {make_job(0.0, 5.0), make_job(1.0, 600.0),
                                make_job(2.0, 90000.0)};
  NormalizeReport report;
  const auto out = normalize(jobs, NormalizeOptions{}, &report);  // paper clip [60, 7200]
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0].duration, 60.0);
  EXPECT_DOUBLE_EQ(out[1].duration, 600.0);
  EXPECT_DOUBLE_EQ(out[2].duration, 7200.0);
  EXPECT_EQ(report.clamped_durations, 2u);
}

TEST(Normalize, OutputSurvivesStrictTraceIo) {
  // Deliberately messy input: unsorted, duplicated, out-of-range demands.
  std::vector<sim::Job> jobs = {make_job(900.0, 30.0, 3.0, 0.0, 0.7),
                                make_job(100.0, 0.5), make_job(500.0, 9999999.0),
                                make_job(500.0, 9999999.0)};
  const auto out = normalize(jobs);
  std::stringstream buf;
  write_trace(buf, out);
  const auto loaded = read_trace(buf);  // throws if anything is out of spec
  EXPECT_EQ(loaded.size(), out.size());
}

TEST(Normalize, EmptyInputAndBadOptions) {
  NormalizeReport report;
  EXPECT_TRUE(normalize({}, NormalizeOptions{}, &report).empty());
  EXPECT_EQ(report.rows_in, 0u);

  NormalizeOptions bad;
  bad.window_end_s = -1.0;
  EXPECT_THROW(normalize({}, bad), std::invalid_argument);
  NormalizeOptions bad2;
  bad2.resource_floor = 0.0;
  EXPECT_THROW(normalize({}, bad2), std::invalid_argument);
  NormalizeOptions bad3;
  bad3.min_duration_s = 10.0;
  bad3.max_duration_s = 5.0;
  EXPECT_THROW(normalize({}, bad3), std::invalid_argument);
}

// NaN fails every option check; an unchecked NaN window would empty the
// trace without an error.
TEST(Normalize, NanOptionsAreRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double NormalizeOptions::*field :
       {&NormalizeOptions::window_start_s, &NormalizeOptions::window_end_s,
        &NormalizeOptions::min_duration_s, &NormalizeOptions::max_duration_s,
        &NormalizeOptions::rescale_peak, &NormalizeOptions::resource_floor,
        &NormalizeOptions::resource_cap}) {
    NormalizeOptions o;
    o.*field = nan;
    EXPECT_THROW(o.validate(), std::invalid_argument);
    EXPECT_THROW(normalize({make_job(0.0, 100.0)}, o), std::invalid_argument);
  }
}

}  // namespace
}  // namespace hcrl::workload::trace
