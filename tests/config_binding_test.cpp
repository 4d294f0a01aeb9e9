#include "src/core/config_binding.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "src/core/runner.hpp"
#include "src/policy/registry.hpp"

namespace hcrl::core {
namespace {

TEST(ExperimentConfigFrom, DefaultsWhenEmpty) {
  const auto cfg = experiment_config_from(common::Config{});
  EXPECT_EQ(cfg.allocator, "drl");  // the hierarchical system
  EXPECT_EQ(cfg.power, "rl-dpm");
  EXPECT_EQ(cfg.num_servers, 30u);
}

TEST(ExperimentConfigFrom, OverridesApply) {
  const auto raw = common::Config::from_string(
      "system = drl-only\n"
      "num_servers = 12\n"
      "num_groups = 4\n"
      "trace.num_jobs = 2000\n"
      "server.peak_watts = 200\n");
  const auto cfg = experiment_config_from(raw);
  EXPECT_EQ(cfg.allocator, "drl");
  EXPECT_EQ(cfg.power, "immediate-sleep");
  EXPECT_EQ(cfg.num_servers, 12u);
  EXPECT_EQ(cfg.num_groups, 4u);
  EXPECT_EQ(cfg.trace.num_jobs, 2000u);
  EXPECT_DOUBLE_EQ(cfg.server.power.peak_watts, 200.0);
}

// The learning tiers' options live in their entries' blocks: the binder
// passes them through, and the factories apply them over their defaults.
TEST(ExperimentConfigFrom, LearningTierOptionsReachTheirFactories) {
  const auto cfg = experiment_config_from(common::Config::from_string(
      "num_servers = 6\n"
      "num_groups = 2\n"
      "allocator.w_vms = 0.25\n"
      "allocator.subq_hidden = 16\n"
      "allocator.seed = 5\n"
      "power.w = 0.9\n"
      "power.predictor = window\n"
      "power.shared_table = false\n"));
  EXPECT_EQ(cfg.allocator_opts.get_string("w_vms"), "0.25");
  const policy::SystemBundle bundle = policy::build_system(cfg);
  ASSERT_NE(bundle.drl, nullptr);
  EXPECT_DOUBLE_EQ(bundle.drl->options().w_vms, 0.25);
  EXPECT_EQ(bundle.drl->options().qnet.subq_hidden, 16u);
  EXPECT_EQ(bundle.drl->options().seed, 5u);
  EXPECT_DOUBLE_EQ(bundle.drl->options().beta, DrlAllocatorOptions{}.beta);
  ASSERT_NE(bundle.local_rl, nullptr);
  EXPECT_EQ(bundle.power->name(), "rl-dpm(window)");
  EXPECT_EQ(bundle.local_rl->options().predictor, "window");
  EXPECT_DOUBLE_EQ(bundle.local_rl->options().w, 0.9);
  EXPECT_FALSE(bundle.local_rl->options().shared_table);
}

// `drl.*` and `local.*` are not keys: each is rejected as unknown, whichever
// policy pair the config names.
TEST(ExperimentConfigFrom, OldTierKeysRejectedAsUnknown) {
  for (const char* line : {"drl.beta = 0.3", "local.w = 0.2", "local.predictor = window"}) {
    SCOPED_TRACE(line);
    for (const char* system : {"round-robin", "hierarchical"}) {
      try {
        experiment_config_from(common::Config::from_string(
            std::string("system = ") + system + "\nnum_servers = 6\nnum_groups = 2\n" + line));
        FAIL() << "expected unknown-key rejection";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("unknown keys"), std::string::npos) << e.what();
      }
    }
  }
  // A moved key under a policy that does not take it fails in the registry.
  try {
    experiment_config_from(common::Config::from_string(
        "system = round-robin\nnum_servers = 6\nnum_groups = 2\nallocator.beta = 0.3\n"));
    FAIL() << "expected unknown-option rejection";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "allocator 'round-robin': unknown option key 'beta' (valid: none)"),
              std::string::npos)
        << e.what();
  }
}

// An option-block error names the key as the config wrote it: a value that
// does not parse in the parser's message, a value out of range in the
// entry-and-block prefix of the factory's.
TEST(ExperimentConfigFrom, OptionErrorsNameTheWrittenKey) {
  const struct {
    const char* text;
    const char* key;
  } cases[] = {
      {"power = fixed-timeout\npower.timeout_s = abc\n", "'power.timeout_s'"},
      {"allocator = random-k\nallocator.k = x\n", "'allocator.k'"},
      {"allocator.beta = abc\n", "'allocator.beta'"},
      {"allocator.batch_size = -1\n", "'allocator.batch_size'"},
      {"power.w = abc\n", "'power.w'"},
      {"power.shared_table = maybe\n", "'power.shared_table'"},
      {"power = fixed-timeout\npower.timeout_s = -5\n",
       "power policy 'fixed-timeout' (power.timeout_s = -5): FixedTimeoutPolicy: timeout must be"},
      {"allocator.beta = -1\n", "allocator 'drl' (allocator.beta = -1): DrlAllocator: beta must"},
      {"power.w = 2\n", "power policy 'rl-dpm' (power.w = 2): RlPowerManager: w out of [0,1]"},
      {"allocator = random-k\nallocator.k = 7\n", "allocator 'random-k' (allocator.k = 7): k must"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.text);
    try {
      experiment_config_from(common::Config::from_string(
          std::string("num_servers = 6\nnum_groups = 2\n") + c.text));
      FAIL() << "expected rejection";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.key), std::string::npos) << e.what();
    }
  }
}

TEST(ExperimentConfigFrom, HorizonDefaultsToPaperRate) {
  const auto raw = common::Config::from_string("trace.num_jobs = 9500\n");
  const auto cfg = experiment_config_from(raw);
  // 9500 jobs at the paper's 95k/week rate -> one tenth of a week.
  EXPECT_NEAR(cfg.trace.horizon_s, sim::kSecondsPerWeek / 10.0, 1.0);
}

TEST(ExperimentConfigFrom, PolicySelectionKeysBind) {
  const auto raw = common::Config::from_string(
      "allocator = random-k\n"
      "allocator.k = 2\n"
      "power = fixed-timeout\n"
      "power.timeout_s = 45\n"
      "sla_latency_s = 120\n");
  const auto cfg = experiment_config_from(raw);
  EXPECT_EQ(cfg.allocator, "random-k");
  EXPECT_EQ(cfg.allocator_opts.get_string("k"), "2");
  EXPECT_EQ(cfg.power, "fixed-timeout");
  EXPECT_DOUBLE_EQ(cfg.power_opts.get_double("timeout_s"), 45.0);
  EXPECT_DOUBLE_EQ(cfg.sla_latency_s, 120.0);
}

TEST(ExperimentConfigFrom, PolicyKeysOverrideHalfOfTheSystemPreset) {
  const auto cfg = experiment_config_from(common::Config::from_string(
      "system = drl-fixed-timeout\n"
      "allocator = best-fit\n"
      "power.timeout_s = 30\n"));
  EXPECT_EQ(cfg.allocator, "best-fit");
  EXPECT_EQ(cfg.power, "fixed-timeout");  // kept from the preset
  EXPECT_DOUBLE_EQ(cfg.power_opts.get_double("timeout_s"), 30.0);
}

TEST(ExperimentConfigFrom, FixedTimeoutKeyPointsToPowerTimeout) {
  try {
    experiment_config_from(common::Config::from_string("fixed_timeout_s = 30\n"));
    FAIL() << "expected fixed_timeout_s to be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("power.timeout_s"), std::string::npos) << e.what();
  }
}

TEST(ExperimentConfigFrom, UnknownPolicyOptionKeyRejected) {
  // Dotted policy options bypass the binder's unused-key audit, but the
  // registry schema still rejects keys the factory would never read.
  const auto raw = common::Config::from_string(
      "allocator = random-k\n"
      "allocator.kk = 2\n");
  try {
    experiment_config_from(raw);
    FAIL() << "expected unknown-option rejection";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'k'"), std::string::npos) << e.what();
  }
}

TEST(ExperimentConfigFrom, NegativeSlaRejected) {
  const auto raw = common::Config::from_string("sla_latency_s = -5\n");
  EXPECT_THROW(experiment_config_from(raw), std::invalid_argument);
}

TEST(ExperimentConfigFrom, UnknownKeysRejected) {
  const auto raw = common::Config::from_string("trace.num_jobs = 100\nnot_a_key = 1\n");
  EXPECT_THROW(experiment_config_from(raw), std::invalid_argument);
}

// The simulator has one engine, so `shards` is not a config key, and the
// vestigial ExperimentConfig::shards field must stay 0.
TEST(ExperimentConfigFrom, ShardsKeyRejectedAsUnknown) {
  const auto raw = common::Config::from_string("shards = 2\n");
  try {
    experiment_config_from(raw);
    FAIL() << "expected unknown-key rejection";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown keys: shards"), std::string::npos) << e.what();
  }
}

// Both tiers decide inline, so `batch_decisions` is not a config key.
TEST(ExperimentConfigFrom, BatchDecisionsKeyRejectedAsUnknown) {
  const auto raw = common::Config::from_string("batch_decisions = false\n");
  try {
    experiment_config_from(raw);
    FAIL() << "expected unknown-key rejection";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown keys: batch_decisions"), std::string::npos)
        << e.what();
  }
}

// Every GEMM runs on the calling thread, so `gemm_threads` is not a config key.
TEST(ExperimentConfigFrom, GemmThreadsKeyRejectedAsUnknown) {
  const auto raw = common::Config::from_string("gemm_threads = 2\n");
  try {
    experiment_config_from(raw);
    FAIL() << "expected unknown-key rejection";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown keys: gemm_threads"), std::string::npos)
        << e.what();
  }
}

TEST(ExperimentConfigFrom, NonZeroShardsFailsValidation) {
  ExperimentConfig cfg = experiment_config_from(common::Config{});
  cfg.shards = 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ExperimentConfigFrom, InvalidValuesRejectedByValidation) {
  const auto raw = common::Config::from_string("num_servers = 10\nnum_groups = 3\n");
  // 3 does not divide 10, which ExperimentConfig::validate rejects.
  EXPECT_THROW(experiment_config_from(raw), std::invalid_argument);
}

TEST(ExperimentConfigFrom, RunsEndToEnd) {
  const auto raw = common::Config::from_string(
      "system = round-robin\n"
      "num_servers = 4\n"
      "num_groups = 2\n"
      "trace.num_jobs = 300\n"
      "checkpoint_every_jobs = 100\n"
      "pretrain_jobs = 0\n");
  Scenario scenario;
  scenario.name = "round-robin";
  scenario.config = experiment_config_from(raw);
  const auto result = run_scenario(scenario);
  EXPECT_EQ(result.final_snapshot.jobs_completed, 300u);
  EXPECT_EQ(result.series.size(), 3u);
}

}  // namespace
}  // namespace hcrl::core
