// Cross-module integration tests: conservation laws and the paper's
// qualitative ordering on a moderately sized trace.
#include <gtest/gtest.h>

#include <string>

#include "src/core/runner.hpp"
#include "src/policy/registry.hpp"
#include "src/sim/cluster.hpp"
#include "src/workload/generator.hpp"

namespace hcrl {
namespace {

core::ExperimentConfig mid_config(const std::string& system, std::uint64_t seed) {
  core::ExperimentConfig cfg;
  policy::apply_system(cfg, system);
  cfg.num_servers = 12;
  cfg.num_groups = 3;
  cfg.trace.num_jobs = 3000;
  // Same offered load per server as the paper's 95k/week/30 machines.
  cfg.trace.horizon_s = sim::kSecondsPerWeek * 3000.0 / 95000.0 * (30.0 / 12.0);
  cfg.trace.seed = seed;
  cfg.pretrain_jobs = 1000;
  cfg.checkpoint_every_jobs = 0;
  return cfg;
}

core::ExperimentResult run(const core::ExperimentConfig& cfg) {
  core::Scenario scenario;
  scenario.name = cfg.allocator + "+" + cfg.power;
  scenario.config = cfg;
  return core::run_scenario(scenario);
}

// Conservation + sanity invariants must hold under every policy and seed.
class ConservationInvariants
    : public testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {};

TEST_P(ConservationInvariants, Hold) {
  const auto& [system, seed] = GetParam();
  const core::ExperimentResult r = run(mid_config(system, seed));
  const auto& s = r.final_snapshot;

  // Every arrived job completes; none is lost or duplicated.
  EXPECT_EQ(s.jobs_arrived, 3000u);
  EXPECT_EQ(s.jobs_completed, 3000u);
  EXPECT_DOUBLE_EQ(s.jobs_in_system, 0.0);

  // Latency for each job is at least its duration; accumulated latency is
  // therefore at least the trace's total duration mass.
  EXPECT_GE(s.accumulated_latency_s,
            r.trace_stats.mean_duration_s * 3000.0 * (1.0 - 1e-9));

  // Energy bounds: non-negative and below all-servers-at-peak-forever.
  EXPECT_GE(s.energy_joules, 0.0);
  EXPECT_LE(s.energy_joules, 12.0 * 145.0 * s.now * 1.001);

  // Average power consistency with energy/time.
  EXPECT_NEAR(s.average_power_watts, s.energy_joules / s.now, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSeeds, ConservationInvariants,
    testing::Combine(testing::Values("round-robin", "drl-only", "hierarchical",
                                     "first-fit-packing"),
                     testing::Values(1u, 7u)));

// The paper's headline qualitative result (Table I / Figs. 8-9): both DRL
// systems use substantially less energy than round-robin, and round-robin
// has the lowest latency.
TEST(PaperOrdering, DrlSystemsBeatRoundRobinOnEnergy) {
  auto scaled = [](const std::string& system) {
    core::ExperimentConfig cfg = mid_config(system, 3);
    cfg.trace.num_jobs = 6000;
    cfg.trace.horizon_s *= 2.0;
    cfg.pretrain_jobs = 3000;
    return run(cfg);
  };
  const auto rr = scaled("round-robin");
  const auto drl = scaled("drl-only");
  const auto hier = scaled("hierarchical");

  // Energy: round-robin (always on) is substantially worse. (The margin at
  // full 95k-job scale is ~40-55%; this test uses a small trace, so assert a
  // conservative 10%+ gap that holds across seeds.)
  EXPECT_LT(drl.final_snapshot.energy_joules, 0.90 * rr.final_snapshot.energy_joules);
  EXPECT_LT(hier.final_snapshot.energy_joules, 0.90 * rr.final_snapshot.energy_joules);

  // Latency: round-robin spreads jobs and has the least queueing/wake-ups.
  EXPECT_LE(rr.final_snapshot.accumulated_latency_s,
            drl.final_snapshot.accumulated_latency_s * 1.001);
  EXPECT_LE(rr.final_snapshot.accumulated_latency_s,
            hier.final_snapshot.accumulated_latency_s * 1.001);
}

TEST(PaperOrdering, JobRecordsAreInternallyConsistent) {
  core::ExperimentConfig cfg = mid_config("hierarchical", 5);
  cfg.trace.num_jobs = 1500;
  cfg.pretrain_jobs = 500;
  const auto result = run(cfg);
  EXPECT_EQ(result.final_snapshot.jobs_completed, 1500u);
}

TEST(WholeStack, DeterministicGivenIdenticalConfig) {
  const auto a = run(mid_config("hierarchical", 11));
  const auto b = run(mid_config("hierarchical", 11));
  EXPECT_DOUBLE_EQ(a.final_snapshot.energy_joules, b.final_snapshot.energy_joules);
  EXPECT_DOUBLE_EQ(a.final_snapshot.accumulated_latency_s,
                   b.final_snapshot.accumulated_latency_s);
}

TEST(WholeStack, FixedTimeoutFamilyBracketsImmediateSleep) {
  // Structural relationship on energy: with the same allocator, a fixed
  // 30 s timeout burns at least as much energy as immediate sleep minus
  // transition effects; mostly we assert all variants complete and produce
  // ordered, finite metrics.
  const auto imm = run(mid_config("drl-only", 13));
  auto cfg = mid_config("drl-fixed-timeout", 13);
  cfg.power_opts.set("timeout_s", 30.0);
  const auto t30 = run(cfg);
  cfg.power_opts.set("timeout_s", 90.0);
  const auto t90 = run(cfg);
  EXPECT_GT(imm.final_snapshot.energy_joules, 0.0);
  EXPECT_GT(t30.final_snapshot.energy_joules, 0.0);
  // Longer timeout keeps servers idle longer -> at least as much energy as
  // the shorter timeout under the same allocator/seed, up to RL noise in
  // the global tier; allow 5% slack.
  EXPECT_GT(t90.final_snapshot.energy_joules, 0.95 * t30.final_snapshot.energy_joules);
}

}  // namespace
}  // namespace hcrl
