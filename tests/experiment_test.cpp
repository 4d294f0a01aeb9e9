#include "src/core/experiment.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/core/config_binding.hpp"
#include "src/core/runner.hpp"
#include "src/core/scenario.hpp"
#include "src/policy/registry.hpp"

namespace hcrl::core {
namespace {

ExperimentConfig tiny_config(const std::string& system, std::size_t jobs = 600) {
  ExperimentConfig cfg;
  policy::apply_system(cfg, system);
  cfg.num_servers = 6;
  cfg.num_groups = 2;
  cfg.trace.num_jobs = jobs;
  cfg.trace.horizon_s = static_cast<double>(jobs) * 6.4;  // paper-like rate
  cfg.trace.seed = 21;
  cfg.pretrain_jobs = jobs / 4;
  cfg.checkpoint_every_jobs = 100;
  return cfg;
}

ExperimentResult run(const ExperimentConfig& cfg) {
  Scenario scenario;
  scenario.name = cfg.allocator + "+" + cfg.power;
  scenario.config = cfg;
  return run_scenario(scenario);
}

// The learning tiers size themselves from the cluster the config describes,
// with no step between assigning the fields and building the pair.
TEST(ExperimentConfig, BuildSystemSizesBothTiersFromTheCluster) {
  ExperimentConfig cfg;
  cfg.num_servers = 6;
  cfg.num_groups = 2;
  cfg.server.t_on = 25.0;
  cfg.precision = nn::Precision::kF32;
  const policy::SystemBundle bundle = policy::build_system(cfg);

  ASSERT_NE(bundle.drl, nullptr);
  EXPECT_EQ(bundle.drl->network().num_actions(), 6u);
  EXPECT_EQ(bundle.drl->encoder().options().num_groups, 2u);
  EXPECT_EQ(bundle.drl->network().precision(), nn::Precision::kF32);

  ASSERT_NE(bundle.local_rl, nullptr);
  EXPECT_EQ(bundle.local_rl->options().num_servers, 6u);
  EXPECT_NO_THROW(bundle.local_rl->predictor(5));
  EXPECT_THROW(bundle.local_rl->predictor(6), std::out_of_range);
  EXPECT_DOUBLE_EQ(bundle.local_rl->options().t_on_s, 25.0);
  for (sim::ServerId id = 0; id < 6; ++id) {
    const auto* lstm = dynamic_cast<const LstmPredictor*>(&bundle.local_rl->predictor(id));
    ASSERT_NE(lstm, nullptr) << id;
    EXPECT_EQ(lstm->options().precision, nn::Precision::kF32) << id;
  }
}

TEST(ExperimentConfig, ValidationCatchesBadSetups) {
  for (const double timeout : {-5.0, std::numeric_limits<double>::quiet_NaN()}) {
    ExperimentConfig cfg = tiny_config("drl-fixed-timeout");
    cfg.power_opts.set("timeout_s", timeout);
    EXPECT_THROW(cfg.validate(), std::invalid_argument) << timeout;
  }
  // An infinite timeout is valid: the server never sleeps.
  ExperimentConfig never = tiny_config("drl-fixed-timeout");
  never.power_opts.set("timeout_s", std::numeric_limits<double>::infinity());
  EXPECT_NO_THROW(never.validate());
}

class ExperimentRun : public testing::TestWithParam<std::string> {};

TEST_P(ExperimentRun, CompletesAllJobsWithSaneMetrics) {
  const ExperimentConfig cfg = tiny_config(GetParam());
  const ExperimentResult r = run(cfg);
  const auto& s = r.final_snapshot;
  EXPECT_EQ(s.jobs_arrived, 600u);
  EXPECT_EQ(s.jobs_completed, 600u);
  EXPECT_DOUBLE_EQ(s.jobs_in_system, 0.0);
  EXPECT_GT(s.energy_joules, 0.0);
  // Energy can never exceed all servers at transition/peak power forever.
  EXPECT_LE(s.energy_joules, 6.0 * 145.0 * s.now * 1.001);
  EXPECT_GT(s.accumulated_latency_s, 0.0);
  // Mean latency at least the minimum job duration.
  EXPECT_GE(s.average_latency_s(), 60.0);
  EXPECT_EQ(r.allocator, cfg.allocator);
  EXPECT_EQ(r.power, cfg.power);
  EXPECT_GT(r.wall_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllSystems, ExperimentRun,
                         testing::Values("round-robin", "drl-only", "hierarchical",
                                         "drl-fixed-timeout", "least-loaded",
                                         "first-fit-packing"));

// ---- system presets ---------------------------------------------------------

// The pair each paper system names, spelled out here independently of the
// preset table in src/policy/registry.cpp, so a changed row fails.
const std::vector<std::tuple<std::string, std::string, std::string>> kPresetPairs = {
    {"round-robin", "round-robin", "always-on"},
    {"drl-only", "drl", "immediate-sleep"},
    {"hierarchical", "drl", "rl-dpm"},
    {"drl-fixed-timeout", "drl", "fixed-timeout"},
    {"least-loaded", "least-loaded", "immediate-sleep"},
    {"first-fit-packing", "first-fit-packing", "immediate-sleep"},
};

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.allocator, b.allocator);
  EXPECT_EQ(a.power, b.power);
  EXPECT_EQ(a.servers_on_at_end, b.servers_on_at_end);
  EXPECT_EQ(a.final_snapshot.now, b.final_snapshot.now);
  EXPECT_EQ(a.final_snapshot.jobs_completed, b.final_snapshot.jobs_completed);
  EXPECT_EQ(a.final_snapshot.energy_joules, b.final_snapshot.energy_joules);
  EXPECT_EQ(a.final_snapshot.accumulated_latency_s, b.final_snapshot.accumulated_latency_s);
  EXPECT_EQ(a.final_snapshot.reliability_penalty, b.final_snapshot.reliability_penalty);
  EXPECT_EQ(a.latency_p99_s, b.latency_p99_s);
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_EQ(a.series[i].energy_kwh, b.series[i].energy_kwh);
    EXPECT_EQ(a.series[i].accumulated_latency_s, b.series[i].accumulated_latency_s);
  }
}

// `system = <preset>` in a config file, the same pair named by `allocator` /
// `power`, and the registry's tiny/<preset> scenario run bit-identically, at
// both precisions.
class PresetParity
    : public testing::TestWithParam<std::tuple<std::size_t, std::string>> {};

TEST_P(PresetParity, SystemKeyMatchesExplicitPair) {
  const auto& [name, allocator, power] = kPresetPairs[std::get<0>(GetParam())];
  const std::string& precision = std::get<1>(GetParam());
  const std::string common_keys =
      "num_servers = 6\nnum_groups = 2\ntrace.num_jobs = 300\ntrace.horizon_s = 1920\n"
      "trace.seed = 21\npretrain_jobs = 75\ncheckpoint_every_jobs = 100\nprecision = " +
      precision + "\n";
  const ExperimentConfig by_system =
      experiment_config_from(common::Config::from_string("system = " + name + "\n" + common_keys));
  const ExperimentConfig by_pair = experiment_config_from(common::Config::from_string(
      "allocator = " + allocator + "\npower = " + power + "\n" + common_keys));
  Scenario tiny = ScenarioRegistry::builtin().make("tiny/" + name, 300);
  tiny.config.precision = by_system.precision;

  const ExperimentResult a = run(by_system);
  EXPECT_EQ(a.allocator, allocator);
  EXPECT_EQ(a.power, power);
  expect_identical(a, run(by_pair));
  expect_identical(a, run_scenario(tiny));
}

INSTANTIATE_TEST_SUITE_P(SixPresetsBothPrecisions, PresetParity,
                         testing::Combine(testing::Range<std::size_t>(0, 6),
                                          testing::Values("f64", "f32")));

// ---- runs --------------------------------------------------------------------

TEST(Experiment, CheckpointSeriesIsMonotone) {
  const ExperimentResult r = run(tiny_config("round-robin"));
  ASSERT_GE(r.series.size(), 3u);
  for (std::size_t i = 1; i < r.series.size(); ++i) {
    EXPECT_GT(r.series[i].jobs_completed, r.series[i - 1].jobs_completed);
    EXPECT_GE(r.series[i].sim_time_s, r.series[i - 1].sim_time_s);
    EXPECT_GE(r.series[i].energy_kwh, r.series[i - 1].energy_kwh);
    EXPECT_GE(r.series[i].accumulated_latency_s, r.series[i - 1].accumulated_latency_s);
  }
}

TEST(Experiment, CheckpointsDisabledWhenZero) {
  ExperimentConfig cfg = tiny_config("round-robin");
  cfg.checkpoint_every_jobs = 0;
  const ExperimentResult r = run(cfg);
  EXPECT_TRUE(r.series.empty());
}

TEST(Experiment, SharedTraceSourceFeedsEverySystem) {
  const auto trace =
      make_cached(std::make_shared<SyntheticTraceSource>(tiny_config("round-robin", 400).trace));
  std::vector<Scenario> scenarios;
  for (const char* system : {"round-robin", "least-loaded"}) {
    Scenario s;
    s.name = system;
    s.config = tiny_config(system, 400);
    s.trace = trace;
    scenarios.push_back(std::move(s));
  }
  const auto results = run_batch(scenarios, 1);
  ASSERT_EQ(results.size(), 2u);
  // Same trace: both saw identical job populations.
  EXPECT_EQ(results[0].final_snapshot.jobs_completed, 400u);
  EXPECT_EQ(results[1].final_snapshot.jobs_completed, 400u);
  EXPECT_DOUBLE_EQ(results[0].trace_stats.mean_duration_s,
                   results[1].trace_stats.mean_duration_s);
}

TEST(Experiment, PretrainingRunsForDrlSystems) {
  ExperimentConfig cfg = tiny_config("drl-only");
  cfg.pretrain_jobs = 200;
  const ExperimentResult r = run(cfg);
  EXPECT_EQ(r.final_snapshot.jobs_completed, 600u);
}

TEST(Experiment, RoundRobinNeverSleepsSoPowerAtLeastIdleFloor) {
  const ExperimentResult r = run(tiny_config("round-robin"));
  // After the first dispatch cycle all 6 servers stay on >= idle power, so
  // the average power must approach >= ~5.5 * 87 W.
  EXPECT_GT(r.final_snapshot.average_power_watts, 5.0 * 87.0);
  EXPECT_EQ(r.servers_on_at_end, 6u);
}

}  // namespace
}  // namespace hcrl::core
