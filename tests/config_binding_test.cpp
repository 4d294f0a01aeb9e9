#include "src/core/config_binding.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace hcrl::core {
namespace {

TEST(SystemKindFromString, AllNamesRoundTrip) {
  for (SystemKind kind : {SystemKind::kRoundRobin, SystemKind::kDrlOnly,
                          SystemKind::kHierarchical, SystemKind::kDrlFixedTimeout,
                          SystemKind::kLeastLoaded, SystemKind::kFirstFitPacking}) {
    EXPECT_EQ(system_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW(system_kind_from_string("nonsense"), std::invalid_argument);
}

TEST(ExperimentConfigFrom, DefaultsWhenEmpty) {
  const auto cfg = experiment_config_from(common::Config{});
  EXPECT_EQ(cfg.system, SystemKind::kHierarchical);
  EXPECT_EQ(cfg.num_servers, 30u);
  EXPECT_EQ(cfg.drl.qnet.encoder.num_servers, 30u);  // finalize() ran
}

TEST(ExperimentConfigFrom, OverridesApply) {
  const auto raw = common::Config::from_string(
      "system = drl-only\n"
      "num_servers = 12\n"
      "num_groups = 4\n"
      "trace.num_jobs = 2000\n"
      "server.peak_watts = 200\n"
      "drl.w_vms = 0.25\n"
      "local.w = 0.9\n"
      "local.predictor = sliding-mean\n");
  const auto cfg = experiment_config_from(raw);
  EXPECT_EQ(cfg.system, SystemKind::kDrlOnly);
  EXPECT_EQ(cfg.num_servers, 12u);
  EXPECT_EQ(cfg.num_groups, 4u);
  EXPECT_EQ(cfg.trace.num_jobs, 2000u);
  EXPECT_DOUBLE_EQ(cfg.server.power.peak_watts, 200.0);
  EXPECT_DOUBLE_EQ(cfg.drl.w_vms, 0.25);
  EXPECT_DOUBLE_EQ(cfg.local.w, 0.9);
  EXPECT_EQ(cfg.local.predictor, "sliding-mean");
  // finalize() propagated the power scale.
  EXPECT_DOUBLE_EQ(cfg.local.power_scale_watts, 200.0);
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

TEST(ExperimentConfigFrom, NonZeroShardsFailsValidation) {
  ExperimentConfig cfg = experiment_config_from(common::Config{});
  cfg.shards = 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ExperimentConfigFrom, InvalidValuesRejectedByValidation) {
  const auto raw = common::Config::from_string("num_servers = 10\nnum_groups = 3\n");
  // 3 does not divide 10 -> StateEncoderOptions::validate fails in finalize
  // path via ExperimentConfig::validate + DrlAllocator construction later;
  // the encoder check fires when the config is validated.
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
  const auto cfg = experiment_config_from(raw);
  const auto result = run_experiment(cfg);
  EXPECT_EQ(result.final_snapshot.jobs_completed, 300u);
  EXPECT_EQ(result.series.size(), 3u);
}

}  // namespace
}  // namespace hcrl::core
