// Registry-wide audit: every registered policy's declared learning flag must
// match what the factory builds, and every entry must run through
// core::run_scenario. Plus the did-you-mean diagnostics contract for unknown
// names and option keys.
#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/suggest.hpp"
#include "src/core/config_binding.hpp"
#include "src/core/predictor.hpp"
#include "src/core/runner.hpp"
#include "src/core/scenario.hpp"
#include "src/policy/registry.hpp"

namespace {

using namespace hcrl;

core::ExperimentConfig tiny_config() {
  core::ExperimentConfig cfg;
  cfg.num_servers = 6;
  cfg.num_groups = 2;
  cfg.trace.num_jobs = 120;
  cfg.trace.horizon_s = 4000.0;
  cfg.trace.seed = 21;
  cfg.local.predictor = "window";  // keep the rl-dpm audit cells cheap
  cfg.pretrain_jobs = 0;
  cfg.checkpoint_every_jobs = 0;
  cfg.finalize();
  return cfg;
}

// ---- metadata audit --------------------------------------------------------

TEST(PolicyRegistryAudit, AllocatorMetadataMatchesInstances) {
  const auto& reg = policy::PolicyRegistry::builtin();
  const core::ExperimentConfig cfg = tiny_config();
  ASSERT_GE(reg.allocator_names().size(), 9u);
  for (const std::string& name : reg.allocator_names()) {
    SCOPED_TRACE(name);
    const policy::AllocatorInfo& info = reg.allocator_info(name);
    policy::BuiltAllocator built = reg.make_allocator(name, cfg);
    ASSERT_NE(built.policy, nullptr);
    EXPECT_EQ(built.drl != nullptr, info.learning);
  }
}

TEST(PolicyRegistryAudit, PowerMetadataMatchesInstances) {
  const auto& reg = policy::PolicyRegistry::builtin();
  const core::ExperimentConfig cfg = tiny_config();
  ASSERT_GE(reg.power_names().size(), 4u);
  for (const std::string& name : reg.power_names()) {
    SCOPED_TRACE(name);
    const policy::PowerInfo& info = reg.power_info(name);
    policy::BuiltPower built = reg.make_power(name, cfg);
    ASSERT_NE(built.policy, nullptr);
    EXPECT_EQ(built.rl != nullptr, info.learning);
  }
}

// ---- every entry runs ------------------------------------------------------

// Run each allocator through the registry-backed core::run_scenario.
TEST(PolicyRegistryAudit, EveryAllocatorRuns) {
  const auto& reg = policy::PolicyRegistry::builtin();
  for (const std::string& name : reg.allocator_names()) {
    SCOPED_TRACE(name);
    core::Scenario scenario;
    scenario.name = "audit/" + name;
    scenario.config = tiny_config();
    scenario.config.allocator = name;
    scenario.config.power = "immediate-sleep";

    const core::ExperimentResult r = core::run_scenario(scenario);
    EXPECT_EQ(r.allocator, name);
    EXPECT_EQ(r.power, "immediate-sleep");
    EXPECT_EQ(r.final_snapshot.jobs_completed, 120u);
    EXPECT_GT(r.latency_p99_s, 0.0);
    EXPECT_GE(r.latency_p99_s, r.latency_p95_s);
  }
}

TEST(PolicyRegistryAudit, EveryPowerPolicyRuns) {
  const auto& reg = policy::PolicyRegistry::builtin();
  for (const std::string& name : reg.power_names()) {
    SCOPED_TRACE(name);
    core::Scenario scenario;
    scenario.name = "audit/" + name;
    scenario.config = tiny_config();
    scenario.config.allocator = "round-robin";
    scenario.config.power = name;

    const core::ExperimentResult r = core::run_scenario(scenario);
    EXPECT_EQ(r.power, name);
    EXPECT_EQ(r.final_snapshot.jobs_completed, 120u);
  }
}

// ---- system resolution -----------------------------------------------------

TEST(PolicyRegistry, OverrideReplacesHalfOfTheSystemPair) {
  core::ExperimentConfig cfg = tiny_config();
  cfg.system = core::SystemKind::kRoundRobin;
  cfg.allocator = "tetris";
  const policy::ResolvedSystem sel = policy::resolve_system(cfg);
  EXPECT_EQ(sel.allocator, "tetris");
  EXPECT_EQ(sel.power, "always-on");  // kept from the system enum

  const core::ExperimentResult r = core::run_experiment(cfg);
  EXPECT_EQ(r.system, "round-robin");  // enum string is unchanged
  EXPECT_EQ(r.allocator, "tetris");
  EXPECT_EQ(r.power, "always-on");
}

TEST(PolicyRegistry, OptionBlockWithoutPolicyKeyIsRejected) {
  core::ExperimentConfig cfg = tiny_config();
  cfg.allocator_opts.set("k", static_cast<std::int64_t>(4));
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(PolicyRegistry, PerPolicyOptionsReachTheFactory) {
  core::ExperimentConfig cfg = tiny_config();
  cfg.allocator = "random-k";
  cfg.allocator_opts.set("k", static_cast<std::int64_t>(2));
  cfg.power = "fixed-timeout";
  cfg.power_opts.set("timeout_s", 45.0);
  policy::SystemBundle bundle = policy::build_system(cfg);
  EXPECT_EQ(bundle.allocation->name(), "random-2");
  EXPECT_EQ(bundle.power->name(), "fixed-timeout-45.000000");
}

// ---- did-you-mean diagnostics ----------------------------------------------

void expect_throw_containing(const std::function<void()>& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected std::invalid_argument mentioning: " << needle;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

TEST(PolicySuggestions, UnknownAllocatorSuggestsNearestName) {
  expect_throw_containing(
      [] { policy::PolicyRegistry::builtin().allocator_info("best-fti"); },
      "did you mean 'best-fit'");
}

TEST(PolicySuggestions, UnknownPowerSuggestsNearestName) {
  expect_throw_containing(
      [] {
        policy::PolicyRegistry::builtin().make_power("rl-dmp", tiny_config());
      },
      "did you mean 'rl-dpm'");
}

TEST(PolicySuggestions, UnknownOptionKeySuggestsSchemaKey) {
  expect_throw_containing(
      [] {
        common::Config opts;
        opts.set("kk", static_cast<std::int64_t>(4));
        policy::PolicyRegistry::builtin().make_allocator("random-k", tiny_config(), opts);
      },
      "did you mean 'k'");
}

TEST(PolicySuggestions, ConfigFileTypoSuggestsAllocator) {
  const auto raw = common::Config::from_string(
      "system = round-robin\n"
      "allocator = bestfit\n");
  expect_throw_containing([&] { core::experiment_config_from(raw); }, "did you mean 'best-fit'");
}

TEST(PolicySuggestions, UnknownSystemKindSuggestsNearestName) {
  const auto raw = common::Config::from_string("system = hierarchial\n");
  expect_throw_containing([&] { core::experiment_config_from(raw); },
                          "did you mean 'hierarchical'");
}

TEST(PolicySuggestions, UnknownPredictorSuggestsNearestKind) {
  core::ExperimentConfig cfg = tiny_config();
  cfg.system = core::SystemKind::kHierarchical;
  cfg.local.predictor = "lsm";
  expect_throw_containing([&] { cfg.validate(); }, "did you mean 'lstm'");
  // The same check guards the per-policy predictor override.
  core::ExperimentConfig cfg2 = tiny_config();
  cfg2.power = "rl-dpm";
  cfg2.power_opts.set("predictor", "windwo");
  expect_throw_containing([&] { cfg2.validate(); }, "did you mean 'window'");
}

TEST(PolicySuggestions, MakePredictorUsesSharedDiagnostic) {
  core::LstmPredictorOptions lstm;
  expect_throw_containing([&] { core::make_predictor("sliding-meen", lstm); },
                          "did you mean 'sliding-mean'");
}

// ---- suggest helper --------------------------------------------------------

TEST(Suggest, EditDistanceBasics) {
  EXPECT_EQ(common::edit_distance("", ""), 0u);
  EXPECT_EQ(common::edit_distance("abc", ""), 3u);
  EXPECT_EQ(common::edit_distance("kitten", "sitting"), 3u);
  EXPECT_EQ(common::edit_distance("best-fit", "best-fti"), 2u);
}

TEST(Suggest, ClosestMatchRespectsThreshold) {
  const std::vector<std::string> names = {"alpha", "beta", "gamma"};
  EXPECT_EQ(common::closest_match("alpah", names).value_or(""), "alpha");
  EXPECT_FALSE(common::closest_match("zzzzzzzzz", names).has_value());
  EXPECT_FALSE(common::closest_match("x", {}).has_value());
}

TEST(Suggest, MessageListsValidNamesEvenWithoutGuess) {
  const std::string msg = common::unknown_key_message("thing", "zzz", {"aa", "bb"});
  EXPECT_NE(msg.find("unknown thing 'zzz'"), std::string::npos);
  EXPECT_EQ(msg.find("did you mean"), std::string::npos);
  EXPECT_NE(msg.find("valid: aa bb"), std::string::npos);
}

}  // namespace
