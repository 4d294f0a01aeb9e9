// Parameterized sweeps: properties that must hold across whole families of
// configurations, not just the defaults.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "src/core/runner.hpp"
#include "src/core/scenario.hpp"
#include "src/core/state.hpp"
#include "src/nn/loss.hpp"
#include "src/nn/network.hpp"
#include "src/nn/optimizer.hpp"
#include "src/sim/cluster.hpp"
#include "src/workload/generator.hpp"

namespace hcrl {
namespace {

// ---- generator marginals hold for every seed -------------------------------

class GeneratorSeedSweep : public testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorSeedSweep, MarginalsAndOrderingHold) {
  workload::GeneratorOptions o;
  o.num_jobs = 2000;
  o.horizon_s = 2000.0 * 6.4;
  o.seed = GetParam();
  const auto jobs = workload::GoogleTraceGenerator(o).generate();
  ASSERT_EQ(jobs.size(), 2000u);
  double prev = 0.0;
  for (const auto& j : jobs) {
    EXPECT_GE(j.arrival, prev);
    prev = j.arrival;
    EXPECT_GE(j.duration, 60.0);
    EXPECT_LE(j.duration, 7200.0);
    EXPECT_NO_THROW(j.validate(3));
  }
  const auto stats = workload::compute_stats(jobs, o.horizon_s);
  EXPECT_GT(stats.mean_duration_s, 400.0);
  EXPECT_LT(stats.mean_duration_s, 1400.0);
  EXPECT_LT(stats.mean_cpu, 0.12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorSeedSweep,
                         testing::Values(1u, 2u, 3u, 10u, 100u, 1000u, 424242u));

// ---- training reduces loss for every activation ----------------------------

class ActivationSweep : public testing::TestWithParam<nn::Activation> {};

TEST_P(ActivationSweep, NetworkFitsLinearTarget) {
  common::Rng rng(5);
  nn::Network net;
  net.add_dense(2, 8, GetParam(), rng);
  net.add_dense(8, 1, nn::Activation::kIdentity, rng);
  nn::Adam opt(net.params(), nn::Adam::Options{.lr = 5e-3});

  auto target_fn = [](double a, double b) { return 0.4 * a - 0.3 * b + 0.1; };
  common::Rng data(6);
  double first = 0.0, last = 0.0;
  for (int i = 0; i < 1500; ++i) {
    const double a = data.uniform(-1.0, 1.0), b = data.uniform(-1.0, 1.0);
    opt.zero_grad();
    const nn::Matrix pred = net.forward_batch(nn::Matrix::from_row({a, b}));
    const auto loss = nn::mse_loss_batch(pred, nn::Matrix::from_row({target_fn(a, b)}));
    net.backward_batch(loss.grad);
    opt.step();
    if (i < 50) first += loss.value;
    if (i >= 1450) last += loss.value;
  }
  EXPECT_LT(last, first * 0.2);
}

INSTANTIATE_TEST_SUITE_P(Activations, ActivationSweep,
                         testing::Values(nn::Activation::kRelu, nn::Activation::kElu,
                                         nn::Activation::kTanh, nn::Activation::kSigmoid));

// ---- state encoder dimensions are consistent for many (M, K) --------------

class EncoderShapeSweep
    : public testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(EncoderShapeSweep, FullStateHasDeclaredDimension) {
  const auto [servers, groups] = GetParam();
  core::StateEncoderOptions o;
  o.num_servers = servers;
  o.num_groups = groups;
  const core::StateEncoder enc(o);

  sim::RoundRobinAllocator alloc;
  sim::AlwaysOnPolicy power;
  sim::ClusterConfig cfg;
  cfg.num_servers = servers;
  sim::Cluster cluster(cfg, alloc, power);

  sim::Job job;
  job.id = 1;
  job.duration = 100.0;
  job.demand = sim::ResourceVector{0.1, 0.1, 0.01};
  EXPECT_EQ(enc.full_state(cluster, job).size(), o.full_state_dim());
  // The K groups of |G| servers tile the M servers.
  EXPECT_EQ(o.num_groups * o.group_size(), servers);
  for (std::size_t k = 0; k < groups; ++k) {
    EXPECT_EQ(enc.group_state(cluster, k).size(), o.group_state_dim());
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, EncoderShapeSweep,
                         testing::Values(std::make_tuple(4u, 2u), std::make_tuple(6u, 3u),
                                         std::make_tuple(30u, 3u), std::make_tuple(40u, 4u),
                                         std::make_tuple(60u, 2u), std::make_tuple(8u, 8u)));

// ---- every registered tiny scenario runs to completion via a batch --------

class ScenarioSweep : public testing::TestWithParam<std::string> {};

TEST_P(ScenarioSweep, BuiltinScenarioCompletesAllJobs) {
  const core::Scenario scenario =
      core::ScenarioRegistry::builtin().make(GetParam(), 300);
  const auto results = core::run_batch({scenario}, 1);
  ASSERT_EQ(results.size(), 1u);
  const auto& s = results[0].final_snapshot;
  EXPECT_EQ(s.jobs_arrived, 300u);
  EXPECT_EQ(s.jobs_completed, 300u);
  EXPECT_GT(s.energy_joules, 0.0);
  EXPECT_GE(s.average_latency_s(), 60.0);  // >= the minimum job duration
  // The result names the pair the scenario's system preset chose.
  EXPECT_EQ(results[0].allocator, scenario.config.allocator);
  EXPECT_EQ(results[0].power, scenario.config.power);
}

INSTANTIATE_TEST_SUITE_P(TinySystems, ScenarioSweep,
                         testing::Values("tiny/round-robin", "tiny/drl-only",
                                         "tiny/hierarchical", "tiny/drl-fixed-timeout",
                                         "tiny/least-loaded", "tiny/first-fit-packing"));

// ---- energy monotonicity: always-on dominates every timeout policy --------

class TimeoutEnergySweep : public testing::TestWithParam<double> {};

TEST_P(TimeoutEnergySweep, AlwaysOnIsEnergyUpperBoundForSparseLoad) {
  workload::GeneratorOptions g;
  g.num_jobs = 60;
  g.horizon_s = 60.0 * 1800.0;  // very sparse: sleeping clearly pays
  g.seed = 3;
  auto jobs = workload::GoogleTraceGenerator(g).generate();

  auto energy_with = [&](sim::PowerPolicy& policy) {
    sim::RoundRobinAllocator alloc;
    sim::ClusterConfig cfg;
    cfg.num_servers = 5;
    cfg.server.start_asleep = false;
    sim::Cluster cluster(cfg, alloc, policy);
    cluster.load_jobs(jobs);
    cluster.run();
    return cluster.snapshot().energy_joules;
  };

  sim::AlwaysOnPolicy always_on;
  sim::FixedTimeoutPolicy fixed(GetParam());
  EXPECT_LT(energy_with(fixed), energy_with(always_on));
}

INSTANTIATE_TEST_SUITE_P(Timeouts, TimeoutEnergySweep,
                         testing::Values(0.0, 30.0, 60.0, 120.0, 300.0));

}  // namespace
}  // namespace hcrl
