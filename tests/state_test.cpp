#include "src/core/state.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "src/sim/cluster.hpp"
#include "src/sim/policies.hpp"

namespace hcrl::core {
namespace {

StateEncoderOptions opts(std::size_t servers = 6, std::size_t groups = 2) {
  StateEncoderOptions o;
  o.num_servers = servers;
  o.num_groups = groups;
  o.num_resources = 3;
  return o;
}

sim::Job make_job(double cpu = 0.2, double duration = 600.0) {
  sim::Job j;
  j.id = 1;
  j.arrival = 0.0;
  j.duration = duration;
  j.demand = sim::ResourceVector{cpu, cpu, 0.05};
  return j;
}

TEST(StateEncoderOptions, Validation) {
  EXPECT_NO_THROW(opts().validate());
  auto o = opts(5, 2);  // 2 does not divide 5
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = opts(0, 1);
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = opts();
  o.num_resources = 0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = opts();
  o.duration_scale = 0.0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
}

TEST(StateEncoderOptions, DimensionArithmetic) {
  const auto o = opts(6, 2);
  EXPECT_EQ(o.group_size(), 3u);
  EXPECT_EQ(o.per_server_features(), 5u);  // 3 resources + availability + queue
  EXPECT_EQ(o.group_state_dim(), 15u);
  EXPECT_EQ(o.job_state_dim(), 4u);
  EXPECT_EQ(o.full_state_dim(), 2u * 15u + 4u);
}

class StateEncoderWithCluster : public testing::Test {
 protected:
  StateEncoderWithCluster() : encoder_(opts(6, 2)) {
    sim::ClusterConfig cfg;
    cfg.num_servers = 6;
    cfg.server.start_asleep = true;
    cluster_ = std::make_unique<sim::Cluster>(cfg, alloc_, power_);
  }

  StateEncoder encoder_;
  sim::RoundRobinAllocator alloc_;
  sim::AlwaysOnPolicy power_;
  std::unique_ptr<sim::Cluster> cluster_;
};

TEST_F(StateEncoderWithCluster, SleepingClusterEncodesZeros) {
  const nn::Vec g = encoder_.group_state(*cluster_, 0);
  ASSERT_EQ(g.size(), 15u);
  for (double v : g) EXPECT_DOUBLE_EQ(v, 0.0);  // utilization 0, asleep, queue 0
}

// Group k holds servers [k*|G|, (k+1)*|G|): server m is slot m % |G| of
// group m / |G|.
TEST_F(StateEncoderWithCluster, GroupStateHoldsItsServersInOrder) {
  std::vector<sim::Job> jobs;
  for (std::size_t i = 0; i < 6; ++i) {
    sim::Job j = make_job(0.1 * static_cast<double>(i + 1), 1000.0);
    j.id = i;
    jobs.push_back(j);
  }
  cluster_->load_jobs(jobs);  // round-robin: one job per server
  while (cluster_->servers_on() < 6) ASSERT_TRUE(cluster_->step());
  const StateEncoderOptions& o = encoder_.options();
  for (std::size_t m = 0; m < 6; ++m) {
    const nn::Vec g = encoder_.group_state(*cluster_, m / o.group_size());
    const std::size_t slot = (m % o.group_size()) * o.per_server_features();
    EXPECT_DOUBLE_EQ(g[slot], cluster_->server(m).utilization(0)) << "server " << m;
    EXPECT_DOUBLE_EQ(g[slot + 3], 1.0) << "server " << m;  // availability: on
  }
}

TEST_F(StateEncoderWithCluster, JobStateEncodesDemandsAndDuration) {
  const nn::Vec j = encoder_.job_state(make_job(0.3, 7200.0));
  ASSERT_EQ(j.size(), 4u);
  EXPECT_DOUBLE_EQ(j[0], 0.3);
  EXPECT_DOUBLE_EQ(j[1], 0.3);
  EXPECT_DOUBLE_EQ(j[2], 0.05);
  EXPECT_NEAR(j[3], 1.0, 1e-9);  // duration at the scale cap -> 1
}

TEST_F(StateEncoderWithCluster, FullStateConcatenatesGroupsAndJob) {
  const nn::Vec s = encoder_.full_state(*cluster_, make_job());
  EXPECT_EQ(s.size(), encoder_.options().full_state_dim());
}

TEST_F(StateEncoderWithCluster, RunningJobShowsInUtilizationAndAvailability) {
  std::vector<sim::Job> jobs = {make_job(0.4, 1000.0)};
  jobs[0].arrival = 0.0;
  cluster_->load_jobs(jobs);
  // Process arrival + wake completion so the job actually starts on server 0.
  const sim::Server& s0 = cluster_->server(0);
  while (cluster_->metrics().jobs_completed() == 0 && s0.jobs_on_server() == s0.queue_length()) {
    cluster_->step();
  }
  const nn::Vec g = encoder_.group_state(*cluster_, 0);
  EXPECT_NEAR(g[0], 0.4, 1e-9);   // cpu of server 0
  EXPECT_DOUBLE_EQ(g[3], 1.0);    // availability: on
}

TEST_F(StateEncoderWithCluster, TransitioningServerEncodesHalfAvailability) {
  std::vector<sim::Job> jobs = {make_job(0.4, 1000.0)};
  cluster_->load_jobs(jobs);
  cluster_->step();  // arrival dispatched; server 0 starts waking
  ASSERT_EQ(cluster_->server(0).power_state(), sim::PowerState::kWaking);
  const nn::Vec g = encoder_.group_state(*cluster_, 0);
  EXPECT_DOUBLE_EQ(g[3], 0.5);
  // Queue feature: one queued job -> log1p(1)/log1p(50).
  EXPECT_NEAR(g[4], std::log1p(1.0) / std::log1p(50.0), 1e-12);
}

TEST_F(StateEncoderWithCluster, BadGroupOrClusterSizeThrows) {
  EXPECT_THROW(encoder_.group_state(*cluster_, 2), std::out_of_range);
  const StateEncoder wrong(opts(12, 2));
  EXPECT_THROW(wrong.group_state(*cluster_, 0), std::invalid_argument);
}

}  // namespace
}  // namespace hcrl::core
