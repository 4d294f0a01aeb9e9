#include "src/sim/metrics.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace hcrl::sim {
namespace {

Job job_at(JobId id, Time arrival) {
  Job j;
  j.id = id;
  j.arrival = arrival;
  j.duration = 10.0;
  j.demand = ResourceVector{0.1};
  return j;
}

JobRecord record(JobId id, Time arrival, Time start, Time finish) {
  JobRecord r;
  r.id = id;
  r.arrival = arrival;
  r.start = start;
  r.finish = finish;
  return r;
}

TEST(ClusterMetrics, ArrivalsAndCompletionsCounted) {
  ClusterMetrics m(2);
  m.on_arrival(job_at(1, 0.0), 0.0);
  m.on_arrival(job_at(2, 1.0), 1.0);
  EXPECT_EQ(m.jobs_arrived(), 2u);
  EXPECT_DOUBLE_EQ(m.jobs_in_system(), 2.0);
  m.on_completion(record(1, 0.0, 0.0, 5.0), 5.0);
  EXPECT_EQ(m.jobs_completed(), 1u);
  EXPECT_DOUBLE_EQ(m.jobs_in_system(), 1.0);
}

TEST(ClusterMetrics, LatencyAccumulation) {
  ClusterMetrics m(1);
  m.on_arrival(job_at(1, 0.0), 0.0);
  m.on_arrival(job_at(2, 0.0), 0.0);
  m.on_completion(record(1, 0.0, 2.0, 12.0), 12.0);   // latency 12
  m.on_completion(record(2, 0.0, 12.0, 30.0), 30.0);  // latency 30
  EXPECT_DOUBLE_EQ(m.accumulated_latency(), 42.0);
  EXPECT_DOUBLE_EQ(m.latency_stats().mean(), 21.0);
  EXPECT_DOUBLE_EQ(m.wait_stats().mean(), 7.0);  // waits 2 and 12
}

TEST(ClusterMetrics, PowerIntegralSumsServers) {
  ClusterMetrics m(2);
  m.on_power_change(0, 100.0, 0.0);
  m.on_power_change(1, 50.0, 0.0);
  EXPECT_DOUBLE_EQ(m.total_power_watts(), 150.0);
  m.on_power_change(0, 0.0, 10.0);  // server 0 off after 10 s
  // Energy so far: 150 W * 10 s.
  EXPECT_DOUBLE_EQ(m.energy_joules(10.0), 1500.0);
  // 10 more seconds at 50 W.
  EXPECT_DOUBLE_EQ(m.energy_joules(20.0), 2000.0);
}

TEST(ClusterMetrics, PowerChangeValidatesServer) {
  ClusterMetrics m(2);
  EXPECT_THROW(m.on_power_change(5, 1.0, 0.0), std::out_of_range);
  EXPECT_THROW(m.on_reliability_change(5, 1.0, 0.0), std::out_of_range);
}

TEST(ClusterMetrics, ReliabilityIntegralTracksDeltas) {
  ClusterMetrics m(2);
  m.on_reliability_change(0, 0.04, 0.0);
  m.on_reliability_change(1, 0.01, 0.0);
  m.on_reliability_change(0, 0.0, 10.0);
  // [0,10): 0.05 total -> 0.5; afterwards 0.01.
  EXPECT_NEAR(m.reliability_integral(10.0), 0.5, 1e-12);
  EXPECT_NEAR(m.reliability_integral(20.0), 0.6, 1e-12);
}

TEST(ClusterMetrics, SnapshotComposition) {
  ClusterMetrics m(1);
  m.on_power_change(0, 100.0, 0.0);
  m.on_arrival(job_at(1, 0.0), 0.0);
  m.on_completion(record(1, 0.0, 0.0, 36.0), 36.0);
  const MetricsSnapshot s = m.snapshot(3600.0);
  EXPECT_DOUBLE_EQ(s.energy_joules, 360000.0);
  EXPECT_DOUBLE_EQ(s.energy_kwh(), 0.1);
  EXPECT_DOUBLE_EQ(s.average_power_watts, 100.0);
  EXPECT_EQ(s.jobs_completed, 1u);
  EXPECT_DOUBLE_EQ(s.average_latency_s(), 36.0);
  EXPECT_DOUBLE_EQ(s.energy_per_job(), 360000.0);
}

TEST(ClusterMetrics, JobRecordsKeptWhenEnabled) {
  ClusterMetrics keep(1, true);
  keep.on_completion(record(1, 0.0, 0.0, 1.0), 1.0);
  EXPECT_EQ(keep.job_records().size(), 1u);
  ClusterMetrics drop(1, false);
  drop.on_completion(record(1, 0.0, 0.0, 1.0), 1.0);
  EXPECT_TRUE(drop.job_records().empty());
  EXPECT_EQ(drop.jobs_completed(), 1u);  // counters still work
}

TEST(LatencyPercentile, MatchesKnownDistribution) {
  ClusterMetrics m(1);
  for (JobId i = 1; i <= 100; ++i) m.on_arrival(job_at(i, 0.0), 0.0);
  for (JobId i = 1; i <= 100; ++i) {
    const auto finish = static_cast<Time>(i);  // latencies 1..100
    m.on_completion(record(i, 0.0, 0.0, finish), finish);
  }
  EXPECT_NEAR(m.latency_percentile(0.5), 50.0, 1.0);
  EXPECT_NEAR(m.latency_percentile(0.95), 95.0, 1.0);
  EXPECT_DOUBLE_EQ(m.latency_percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(m.latency_percentile(1.0), 100.0);
  EXPECT_THROW(m.latency_percentile(1.5), std::invalid_argument);
}

TEST(LatencyPercentile, RequiresRecords) {
  ClusterMetrics no_records(1, false);
  no_records.on_completion(record(1, 0.0, 0.0, 1.0), 1.0);
  EXPECT_THROW(no_records.latency_percentile(0.5), std::logic_error);
  ClusterMetrics empty(1, true);
  EXPECT_THROW(empty.latency_percentile(0.5), std::logic_error);
}

TEST(MetricsSnapshot, SafeOnEmpty) {
  const MetricsSnapshot s;
  EXPECT_DOUBLE_EQ(s.average_latency_s(), 0.0);
  EXPECT_DOUBLE_EQ(s.energy_per_job(), 0.0);
}

}  // namespace
}  // namespace hcrl::sim
