#include "src/sim/cluster.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace hcrl::sim {
namespace {

Job make_job(JobId id, Time arrival, Time duration = 60.0, double cpu = 0.2) {
  Job j;
  j.id = id;
  j.arrival = arrival;
  j.duration = duration;
  j.demand = ResourceVector{cpu, cpu, 0.01};
  return j;
}

ClusterConfig small_cluster(std::size_t n = 3) {
  ClusterConfig cfg;
  cfg.num_servers = n;
  cfg.server.num_resources = 3;
  return cfg;
}

// Brute-force O(M) rescans of the quantities the engine keeps as O(1)
// incremental counters.
double mean_cpu_utilization_scan(const Cluster& c) {
  double total = 0.0;
  for (const Server& s : c.servers()) total += s.utilization(0);
  return total / static_cast<double>(c.num_servers());
}

std::size_t servers_on_scan(const Cluster& c) {
  std::size_t n = 0;
  for (const Server& s : c.servers()) {
    if (s.is_on()) ++n;
  }
  return n;
}

TEST(Cluster, ConfigValidation) {
  ClusterConfig cfg = small_cluster(0);
  RoundRobinAllocator alloc;
  AlwaysOnPolicy power;
  EXPECT_THROW(Cluster(cfg, alloc, power), std::invalid_argument);
}

TEST(Cluster, LoadJobsValidation) {
  RoundRobinAllocator alloc;
  AlwaysOnPolicy power;
  Cluster c(small_cluster(), alloc, power);
  // Unsorted.
  EXPECT_THROW(c.load_jobs({make_job(1, 10.0), make_job(2, 5.0)}), std::invalid_argument);
  // Duplicate ids.
  EXPECT_THROW(c.load_jobs({make_job(1, 1.0), make_job(1, 2.0)}), std::invalid_argument);
  // Valid load succeeds once and only once.
  EXPECT_NO_THROW(c.load_jobs({make_job(1, 1.0), make_job(2, 2.0)}));
  EXPECT_THROW(c.load_jobs({make_job(3, 3.0)}), std::logic_error);
}

TEST(Cluster, AllJobsCompleteAndConserve) {
  RoundRobinAllocator alloc;
  AlwaysOnPolicy power;
  Cluster c(small_cluster(), alloc, power);
  std::vector<Job> jobs;
  for (int i = 0; i < 20; ++i) jobs.push_back(make_job(i, i * 10.0));
  c.load_jobs(jobs);
  c.run();
  EXPECT_EQ(c.metrics().jobs_arrived(), 20u);
  EXPECT_EQ(c.metrics().jobs_completed(), 20u);
  EXPECT_DOUBLE_EQ(c.metrics().jobs_in_system(), 0.0);
  EXPECT_EQ(c.metrics().job_records().size(), 20u);
}

TEST(Cluster, RoundRobinDispatchPattern) {
  RoundRobinAllocator alloc;
  AlwaysOnPolicy power;
  Cluster c(small_cluster(3), alloc, power);
  std::vector<Job> jobs;
  for (int i = 0; i < 9; ++i) jobs.push_back(make_job(i, i * 1.0));
  c.load_jobs(jobs);
  c.run();
  for (std::size_t s = 0; s < 3; ++s) EXPECT_EQ(c.server(s).total_arrivals(), 3u);
}

TEST(Cluster, LatencyAtLeastDuration) {
  RoundRobinAllocator alloc;
  AlwaysOnPolicy power;
  Cluster c(small_cluster(), alloc, power);
  std::vector<Job> jobs;
  for (int i = 0; i < 10; ++i) jobs.push_back(make_job(i, i * 5.0, 42.0));
  c.load_jobs(jobs);
  c.run();
  for (const auto& r : c.metrics().job_records()) EXPECT_GE(r.latency(), 42.0 - 1e-9);
}

TEST(Cluster, InvalidAllocatorActionThrows) {
  class BadAllocator final : public AllocationPolicy {
   public:
    ServerId select_server(const ClusterView& cluster, const Job&) override {
      return cluster.num_servers() + 5;
    }
    std::string name() const override { return "bad"; }
  };
  BadAllocator alloc;
  AlwaysOnPolicy power;
  Cluster c(small_cluster(), alloc, power);
  c.load_jobs({make_job(1, 0.0)});
  EXPECT_THROW(c.run(), std::logic_error);
}

TEST(Cluster, StepReturnsFalseWhenDrained) {
  RoundRobinAllocator alloc;
  AlwaysOnPolicy power;
  Cluster c(small_cluster(), alloc, power);
  c.load_jobs({make_job(1, 0.0)});
  while (c.step()) {
  }
  EXPECT_FALSE(c.step());
}

TEST(Cluster, SimulationEndNotifiesAllocatorOnce) {
  class EndCounter final : public AllocationPolicy {
   public:
    ServerId select_server(const ClusterView&, const Job&) override { return 0; }
    void on_simulation_end(const ClusterView&, Time) override { ++ends; }
    std::string name() const override { return "end-counter"; }
    int ends = 0;
  };
  EndCounter alloc;
  AlwaysOnPolicy power;
  Cluster c(small_cluster(), alloc, power);
  c.load_jobs({make_job(1, 0.0)});
  c.run();
  EXPECT_FALSE(c.step());
  EXPECT_FALSE(c.step());
  EXPECT_EQ(alloc.ends, 1);
}

TEST(Cluster, RunUntilCompletedStopsEarly) {
  RoundRobinAllocator alloc;
  AlwaysOnPolicy power;
  Cluster c(small_cluster(), alloc, power);
  std::vector<Job> jobs;
  for (int i = 0; i < 10; ++i) jobs.push_back(make_job(i, i * 1.0, 5.0));
  c.load_jobs(jobs);
  c.run_until_completed(4);
  EXPECT_GE(c.metrics().jobs_completed(), 4u);
  EXPECT_LT(c.metrics().jobs_completed(), 10u);
}

TEST(Cluster, ServersOnAndUtilization) {
  RoundRobinAllocator alloc;
  AlwaysOnPolicy power;
  ClusterConfig cfg = small_cluster(2);
  cfg.server.start_asleep = false;
  Cluster c(cfg, alloc, power);
  EXPECT_EQ(c.servers_on(), 2u);
  EXPECT_DOUBLE_EQ(c.mean_cpu_utilization(), 0.0);
  c.load_jobs({make_job(1, 0.0, 1000.0, 0.5)});
  // The arrival event both dispatches and (idle server) starts the job.
  while (c.metrics().jobs_arrived() < 1) c.step();
  EXPECT_NEAR(c.mean_cpu_utilization(), 0.25, 1e-9);  // 0.5 on one of two
}

TEST(Cluster, EnergyNeverExceedsAllPeak) {
  RoundRobinAllocator alloc;
  AlwaysOnPolicy power;
  Cluster c(small_cluster(3), alloc, power);
  std::vector<Job> jobs;
  for (int i = 0; i < 50; ++i) jobs.push_back(make_job(i, i * 2.0, 30.0, 0.3));
  c.load_jobs(jobs);
  c.run();
  const auto snap = c.snapshot();
  EXPECT_LE(snap.energy_joules, 3.0 * 145.0 * snap.now + 1e-6);
  EXPECT_GE(snap.energy_joules, 0.0);
}

TEST(Cluster, SleepingClusterUsesLessEnergyThanAlwaysOn) {
  auto run_with = [](PowerPolicy& power) {
    RoundRobinAllocator alloc;
    ClusterConfig cfg = small_cluster(3);
    cfg.server.start_asleep = false;
    Cluster c(cfg, alloc, power);
    std::vector<Job> jobs;
    // Sparse arrivals with huge gaps: sleeping pays off.
    for (int i = 0; i < 6; ++i) jobs.push_back(make_job(i, i * 3600.0, 60.0, 0.3));
    c.load_jobs(jobs);
    c.run();
    return c.snapshot().energy_joules;
  };
  AlwaysOnPolicy on;
  ImmediateSleepPolicy sleep_now;
  EXPECT_LT(run_with(sleep_now), 0.5 * run_with(on));
}

// The O(1) incremental counters must track the brute-force rescans at every
// event of a run that exercises all power-state transitions.
TEST(Cluster, IncrementalCountersMatchBruteForceScan) {
  RoundRobinAllocator alloc;
  FixedTimeoutPolicy power(20.0);
  ClusterConfig cfg = small_cluster(4);
  cfg.server.t_on = 30.0;
  cfg.server.t_off = 10.0;
  Cluster c(cfg, alloc, power);
  std::vector<Job> jobs;
  for (int i = 0; i < 60; ++i) jobs.push_back(make_job(i, i * 35.0, 35.0, 0.45));
  c.load_jobs(jobs);
  EXPECT_EQ(c.servers_on(), servers_on_scan(c));
  while (c.step()) {
    ASSERT_EQ(c.servers_on(), servers_on_scan(c));
    ASSERT_NEAR(c.mean_cpu_utilization(), mean_cpu_utilization_scan(c), 1e-12);
  }
  EXPECT_EQ(c.metrics().jobs_completed(), 60u);
}

}  // namespace
}  // namespace hcrl::sim
