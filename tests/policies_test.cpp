#include "src/sim/policies.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/sim/cluster.hpp"

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

ClusterConfig awake_cluster(std::size_t n) {
  ClusterConfig cfg;
  cfg.num_servers = n;
  cfg.server.start_asleep = false;
  return cfg;
}

TEST(RoundRobinAllocator, CyclesThroughServers) {
  RoundRobinAllocator alloc;
  AlwaysOnPolicy power;
  Cluster c(awake_cluster(3), alloc, power);
  const Job j = make_job(1, 0.0);
  EXPECT_EQ(alloc.select_server(c, j), 0u);
  EXPECT_EQ(alloc.select_server(c, j), 1u);
  EXPECT_EQ(alloc.select_server(c, j), 2u);
  EXPECT_EQ(alloc.select_server(c, j), 0u);
}

TEST(RandomAllocator, StaysInRangeAndCoversServers) {
  common::Rng rng(1);
  RandomAllocator alloc(rng);
  AlwaysOnPolicy power;
  Cluster c(awake_cluster(4), alloc, power);
  const Job j = make_job(1, 0.0);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 400; ++i) {
    const ServerId s = alloc.select_server(c, j);
    ASSERT_LT(s, 4u);
    ++counts[s];
  }
  for (int count : counts) EXPECT_GT(count, 50);
}

TEST(LeastLoadedAllocator, PrefersEmptiestAwakeServer) {
  LeastLoadedAllocator alloc;
  AlwaysOnPolicy power;
  Cluster c(awake_cluster(3), alloc, power);
  // Occupy server 0 heavily via direct simulation.
  c.load_jobs({make_job(1, 0.0, 10000.0, 0.9)});
  c.step();  // arrival -> least loaded picks server 0 (all tied, first wins)
  const Job next = make_job(2, 1.0);
  const ServerId chosen = alloc.select_server(c, next);
  EXPECT_NE(chosen, 0u);  // server 0 now has 0.9 CPU load
}

TEST(LeastLoadedAllocator, WakesSleepingServerWhenSaturated) {
  LeastLoadedAllocator alloc;
  AlwaysOnPolicy power;
  ClusterConfig cfg;
  cfg.num_servers = 2;
  cfg.server.start_asleep = true;  // everything asleep
  Cluster c(cfg, alloc, power);
  const ServerId chosen = alloc.select_server(c, make_job(1, 0.0, 10.0, 0.5));
  EXPECT_LT(chosen, 2u);  // picks some sleeping server rather than crashing
}

TEST(FirstFitPackingAllocator, PacksOntoBusiestFittingServer) {
  FirstFitPackingAllocator alloc;
  AlwaysOnPolicy power;
  Cluster c(awake_cluster(3), alloc, power);
  c.load_jobs({make_job(1, 0.0, 10000.0, 0.5)});
  c.step();  // job lands on server 0 (first fit among idle)
  // Server 0 is busiest and still fits a 0.3 job -> pack there.
  EXPECT_EQ(alloc.select_server(c, make_job(2, 1.0, 10.0, 0.3)), 0u);
  // A 0.6 job does not fit on server 0 -> goes elsewhere.
  EXPECT_NE(alloc.select_server(c, make_job(3, 2.0, 10.0, 0.6)), 0u);
}

Job make_shaped_job(JobId id, Time arrival, double cpu, double mem, Time duration = 10000.0) {
  Job j;
  j.id = id;
  j.arrival = arrival;
  j.duration = duration;
  j.demand = ResourceVector{cpu, mem, 0.01};
  return j;
}

TEST(BestFitAllocator, PicksTightestFittingServer) {
  RoundRobinAllocator router;
  BestFitAllocator alloc;
  AlwaysOnPolicy power;
  Cluster c(awake_cluster(3), router, power);
  c.load_jobs({make_job(1, 0.0, 10000.0, 0.5)});
  c.step();  // round-robin lands the filler on server 0
  // Server 0 has the least capacity left over -> best fit for a 0.3 job.
  EXPECT_EQ(alloc.select_server(c, make_job(2, 1.0, 10.0, 0.3)), 0u);
  // A 0.6 job does not fit on server 0 -> tightest among the rest (tie -> 1).
  EXPECT_EQ(alloc.select_server(c, make_job(3, 2.0, 10.0, 0.6)), 1u);
}

TEST(WorstFitAllocator, PicksLoosestFittingServer) {
  RoundRobinAllocator router;
  WorstFitAllocator alloc;
  AlwaysOnPolicy power;
  Cluster c(awake_cluster(3), router, power);
  c.load_jobs({make_job(1, 0.0, 10000.0, 0.5)});
  c.step();  // filler on server 0
  // Servers 1 and 2 are emptier; the first strictly-loosest wins (server 1).
  EXPECT_EQ(alloc.select_server(c, make_job(2, 1.0, 10.0, 0.3)), 1u);
}

TEST(TetrisAllocator, AlignsDemandShapeWithFreeCapacity) {
  RoundRobinAllocator router;
  TetrisAllocator alloc;
  AlwaysOnPolicy power;
  Cluster c(awake_cluster(2), router, power);
  // Server 0 keeps a memory-heavy resident (cpu-rich remainder); server 1 a
  // cpu-heavy resident (memory-rich remainder).
  c.load_jobs({make_shaped_job(1, 0.0, 0.1, 0.8), make_shaped_job(2, 0.5, 0.8, 0.1)});
  c.step();
  c.step();
  // Both probes fit both servers, so the dot product decides: a cpu-heavy
  // job aligns with server 0's cpu-rich free capacity...
  EXPECT_EQ(alloc.select_server(c, make_shaped_job(3, 1.0, 0.15, 0.05, 10.0)), 0u);
  // ...and a memory-heavy job with server 1's memory-rich free capacity.
  EXPECT_EQ(alloc.select_server(c, make_shaped_job(4, 2.0, 0.05, 0.15, 10.0)), 1u);
}

TEST(RandomKAllocator, SeededStreamIsDeterministicAndInRange) {
  AlwaysOnPolicy power;
  RoundRobinAllocator router;
  Cluster c(awake_cluster(5), router, power);
  RandomKAllocator a(3, common::Rng(99));
  RandomKAllocator b(3, common::Rng(99));
  for (int i = 0; i < 50; ++i) {
    const Job j = make_job(static_cast<JobId>(i + 1), static_cast<Time>(i));
    const ServerId sa = a.select_server(c, j);
    ASSERT_LT(sa, 5u);
    EXPECT_EQ(sa, b.select_server(c, j));
  }
}

TEST(RandomKAllocator, RejectsZeroK) {
  EXPECT_THROW(RandomKAllocator(0, common::Rng(1)), std::invalid_argument);
}

TEST(PowerPolicies, TimeoutValues) {
  ClusterMetrics metrics(1);
  ServerConfig cfg;
  cfg.start_asleep = false;
  Server s(0, cfg, &metrics);

  AlwaysOnPolicy always_on;
  EXPECT_EQ(always_on.on_idle(s, 0.0), kNeverSleep);

  ImmediateSleepPolicy immediate;
  EXPECT_DOUBLE_EQ(immediate.on_idle(s, 0.0), 0.0);

  FixedTimeoutPolicy fixed(45.0);
  EXPECT_DOUBLE_EQ(fixed.on_idle(s, 0.0), 45.0);
  EXPECT_DOUBLE_EQ(fixed.timeout(), 45.0);
}

TEST(PowerPolicies, FixedTimeoutRejectsNegative) {
  EXPECT_THROW(FixedTimeoutPolicy(-1.0), std::invalid_argument);
}

TEST(Policies, NamesAreStable) {
  RoundRobinAllocator rr;
  EXPECT_EQ(rr.name(), "round-robin");
  LeastLoadedAllocator ll;
  EXPECT_EQ(ll.name(), "least-loaded");
  FirstFitPackingAllocator ff;
  EXPECT_EQ(ff.name(), "first-fit-packing");
  AlwaysOnPolicy on;
  EXPECT_EQ(on.name(), "always-on");
  ImmediateSleepPolicy is;
  EXPECT_EQ(is.name(), "immediate-sleep");
  BestFitAllocator bf;
  EXPECT_EQ(bf.name(), "best-fit");
  WorstFitAllocator wf;
  EXPECT_EQ(wf.name(), "worst-fit");
  TetrisAllocator tt;
  EXPECT_EQ(tt.name(), "tetris");
  RandomKAllocator rk(4, common::Rng(1));
  EXPECT_EQ(rk.name(), "random-4");
}

}  // namespace
}  // namespace hcrl::sim
