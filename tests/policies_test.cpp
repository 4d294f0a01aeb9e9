#include "src/sim/policies.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.hpp"
#include "src/sim/cluster.hpp"
#include "src/sim/fault/fault.hpp"

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

// ---- the packing scan against its Server-based reference ---------------------

// The four packing allocators as they read before the lane scan: a
// bounds-checked server(i) walk, queue_length(), a ResourceVector from
// available() for the fit and another for the score, and first-fit-packing's
// own filter loop and fallback. The production scan must pick the same server
// at every decision.
namespace reference {

ServerId wake_or_shortest_backlog(const ClusterView& cluster) {
  for (ServerId i = 0; i < cluster.num_servers(); ++i) {
    if (cluster.server(i).power_state() == PowerState::kSleep) return i;
  }
  ServerId fallback = cluster.num_servers();
  std::size_t best_backlog = static_cast<std::size_t>(-1);
  for (ServerId i = 0; i < cluster.num_servers(); ++i) {
    if (cluster.server(i).failed()) continue;
    const std::size_t backlog = cluster.server(i).jobs_on_server();
    if (backlog < best_backlog) {
      best_backlog = backlog;
      fallback = i;
    }
  }
  return fallback < cluster.num_servers() ? fallback : 0;
}

ServerId best_scoring_fit(const ClusterView& cluster, const Job& job,
                          const std::function<double(const Server&)>& score) {
  ServerId best = cluster.num_servers();
  double best_score = -std::numeric_limits<double>::infinity();
  for (ServerId i = 0; i < cluster.num_servers(); ++i) {
    const Server& s = cluster.server(i);
    const bool usable = s.is_on() || s.power_state() == PowerState::kWaking;
    if (!usable || s.queue_length() > 0) continue;
    if (!s.available().fits(job.demand)) continue;
    const double sc = score(s);
    if (sc > best_score) {
      best_score = sc;
      best = i;
    }
  }
  return best;
}

double total_available(const Server& s) {
  const ResourceVector avail = s.available();
  double sum = 0.0;
  for (std::size_t d = 0; d < avail.dims(); ++d) sum += avail[d];
  return sum;
}

ServerId first_fit_packing(const ClusterView& cluster, const Job& job) {
  ServerId best = cluster.num_servers();
  double best_util = -1.0;
  for (ServerId i = 0; i < cluster.num_servers(); ++i) {
    const Server& s = cluster.server(i);
    const bool usable = s.is_on() || s.power_state() == PowerState::kWaking;
    if (!usable || s.queue_length() > 0) continue;
    if (!s.available().fits(job.demand)) continue;
    if (s.utilization(0) > best_util) {
      best_util = s.utilization(0);
      best = i;
    }
  }
  return best < cluster.num_servers() ? best : wake_or_shortest_backlog(cluster);
}

ServerId select(const std::string& name, const ClusterView& cluster, const Job& job) {
  if (name == "first-fit-packing") return first_fit_packing(cluster, job);
  std::function<double(const Server&)> score;
  if (name == "best-fit") {
    score = [](const Server& s) { return -total_available(s); };
  } else if (name == "worst-fit") {
    score = &total_available;
  } else if (name == "tetris") {
    score = [&job](const Server& s) {
      const ResourceVector avail = s.available();
      double dot = 0.0;
      for (std::size_t d = 0; d < avail.dims() && d < job.demand.dims(); ++d) {
        dot += avail[d] * job.demand[d];
      }
      return dot;
    };
  } else {
    throw std::invalid_argument("no reference scan for " + name);
  }
  const ServerId best = best_scoring_fit(cluster, job, score);
  return best < cluster.num_servers() ? best : wake_or_shortest_backlog(cluster);
}

}  // namespace reference

/// Forwards every decision to the production allocator and counts the
/// decisions at which the reference scan would have picked another server.
class ReferenceCheckedAllocator final : public AllocationPolicy {
 public:
  explicit ReferenceCheckedAllocator(std::unique_ptr<AllocationPolicy> inner)
      : inner_(std::move(inner)) {}

  ServerId select_server(const ClusterView& cluster, const Job& job) override {
    const ServerId got = inner_->select_server(cluster, job);
    const ServerId want = reference::select(inner_->name(), cluster, job);
    ++decisions_;
    if (got != want) {
      if (mismatches_ == 0) {
        first_mismatch_ = "job " + std::to_string(job.id) + " at t=" +
                          std::to_string(cluster.now()) + ": got " + std::to_string(got) +
                          ", reference " + std::to_string(want);
      }
      ++mismatches_;
    }
    return got;
  }
  std::string name() const override { return inner_->name(); }

  std::size_t decisions() const { return decisions_; }
  std::size_t mismatches() const { return mismatches_; }
  const std::string& first_mismatch() const { return first_mismatch_; }

 private:
  std::unique_ptr<AllocationPolicy> inner_;
  std::size_t decisions_ = 0;
  std::size_t mismatches_ = 0;
  std::string first_mismatch_;
};

std::vector<std::unique_ptr<AllocationPolicy>> packing_allocators() {
  std::vector<std::unique_ptr<AllocationPolicy>> out;
  out.push_back(std::make_unique<BestFitAllocator>());
  out.push_back(std::make_unique<WorstFitAllocator>());
  out.push_back(std::make_unique<TetrisAllocator>());
  out.push_back(std::make_unique<FirstFitPackingAllocator>());
  return out;
}

/// An overloaded D-dimensional trace. Demands are multiples of 0.1, so sums
/// of them carry rounding noise and some jobs fill a server exactly: the
/// fit test's epsilon decides those placements.
std::vector<Job> grid_trace(std::size_t dims, std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<Job> jobs;
  Time t = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    t += rng.exponential(1.0 / 8.0);
    Job j;
    j.id = static_cast<JobId>(k + 1);
    j.arrival = t;
    j.duration = rng.uniform(60.0, 600.0);
    j.demand = ResourceVector(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      j.demand[d] = 0.1 * static_cast<double>(rng.uniform_int(1, 4));
    }
    jobs.push_back(j);
  }
  return jobs;
}

TEST(PackingScan, MatchesReferenceAtEveryDecisionOfAFaultyRun) {
  for (std::size_t dims = 1; dims <= ResourceVector::kMaxDims; ++dims) {
    for (std::unique_ptr<AllocationPolicy>& inner : packing_allocators()) {
      const std::string name = inner->name();
      SCOPED_TRACE(name + " at D=" + std::to_string(dims));
      ReferenceCheckedAllocator alloc(std::move(inner));
      FixedTimeoutPolicy power(30.0);
      ClusterConfig cfg;
      cfg.num_servers = 12;
      cfg.server.num_resources = dims;
      std::vector<Job> jobs = grid_trace(dims, 1500, 100 + dims);

      FaultConfig fc;
      fc.mtbf_s = 900.0;
      fc.mttr_s = 120.0;
      fc.evict_every_s = 1500.0;
      fc.max_retries = 3;
      fc.backoff_base_s = 5.0;
      fc.backoff_cap_s = 60.0;
      fc.seed = 77;
      FaultInjector faults(fc, cfg.num_servers, jobs.back().arrival);

      Cluster cluster(cfg, alloc, power);
      cluster.install_faults(&faults);
      cluster.load_jobs(std::move(jobs));
      cluster.run();

      const FaultCounters& f = cluster.snapshot().faults;
      EXPECT_GT(f.crashes, 0u);
      EXPECT_GT(f.evictions, 0u);
      EXPECT_GT(f.retries, 0u);
      EXPECT_GT(alloc.decisions(), 1500u);  // trace arrivals plus retries
      EXPECT_EQ(alloc.mismatches(), 0u) << alloc.first_mismatch();
    }
  }
}

/// Sends the i-th placement to targets[i], so a test can set up servers.
class ScriptedAllocator final : public AllocationPolicy {
 public:
  explicit ScriptedAllocator(std::vector<ServerId> targets) : targets_(std::move(targets)) {}
  ServerId select_server(const ClusterView&, const Job&) override { return targets_.at(next_++); }
  std::string name() const override { return "scripted"; }

 private:
  std::vector<ServerId> targets_;
  std::size_t next_ = 0;
};

TEST(PackingScan, TiesGoToTheLowestId) {
  // Servers 1 and 3 hold identical residents, 0 and 2 stay empty: every
  // score comes in equal pairs, and each allocator must take the lower id.
  ScriptedAllocator router({1, 3});
  AlwaysOnPolicy power;
  Cluster c(awake_cluster(4), router, power);
  c.load_jobs({make_job(1, 0.0, 10000.0, 0.3), make_job(2, 0.5, 10000.0, 0.3)});
  c.step();
  c.step();
  const Job probe = make_job(3, 1.0, 10.0, 0.2);
  EXPECT_EQ(BestFitAllocator().select_server(c, probe), 1u);
  EXPECT_EQ(FirstFitPackingAllocator().select_server(c, probe), 1u);
  EXPECT_EQ(WorstFitAllocator().select_server(c, probe), 0u);
  EXPECT_EQ(TetrisAllocator().select_server(c, probe), 0u);
}

TEST(PackingScan, DemandDimensionMismatchThrowsOnlyWhenAServerIsOpen) {
  Job two_dims = make_job(1, 0.0);
  two_dims.demand = ResourceVector{0.2, 0.2};
  RoundRobinAllocator router;
  AlwaysOnPolicy power;
  Cluster awake(awake_cluster(3), router, power);
  ClusterConfig asleep_cfg;
  asleep_cfg.num_servers = 3;  // every server asleep: nothing is open
  Cluster asleep(asleep_cfg, router, power);
  for (std::unique_ptr<AllocationPolicy>& alloc : packing_allocators()) {
    SCOPED_TRACE(alloc->name());
    EXPECT_THROW(alloc->select_server(awake, two_dims), std::invalid_argument);
    EXPECT_THROW(reference::select(alloc->name(), awake, two_dims), std::invalid_argument);
    // No open server, no fit test: both fall back to waking server 0.
    EXPECT_EQ(alloc->select_server(asleep, two_dims), 0u);
    EXPECT_EQ(reference::select(alloc->name(), asleep, two_dims), 0u);
  }
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
