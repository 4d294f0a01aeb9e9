// Randomized property tests: invariants must survive adversarial policies,
// random timeouts, random traces — and adversarial config text, which must
// always fail with a defined std::invalid_argument-family error instead of
// UB or silent acceptance.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "src/common/config.hpp"
#include "src/common/rng.hpp"
#include "src/core/config_binding.hpp"
#include "src/sim/cluster.hpp"
#include "src/workload/generator.hpp"

namespace hcrl {
namespace {

/// Allocation policy that picks uniformly random valid servers — the
/// adversarial "no intelligence at all" case.
class RandomPolicy final : public sim::AllocationPolicy {
 public:
  explicit RandomPolicy(std::uint64_t seed) : rng_(seed) {}
  sim::ServerId select_server(const sim::ClusterView& cluster, const sim::Job&) override {
    return static_cast<sim::ServerId>(
        rng_.uniform_int(0, static_cast<std::int64_t>(cluster.num_servers()) - 1));
  }
  std::string name() const override { return "fuzz-random"; }

 private:
  common::Rng rng_;
};

/// Power policy that returns arbitrary random timeouts, including 0 and
/// "never sleep" — stresses every path of the server state machine.
class RandomTimeoutPolicy final : public sim::PowerPolicy {
 public:
  explicit RandomTimeoutPolicy(std::uint64_t seed) : rng_(seed) {}
  double on_idle(const sim::Server&, sim::Time) override {
    const double roll = rng_.uniform();
    if (roll < 0.25) return 0.0;
    if (roll < 0.35) return sim::kNeverSleep;
    return rng_.uniform(1.0, 600.0);
  }
  std::string name() const override { return "fuzz-timeout"; }

 private:
  common::Rng rng_;
};

class SimulatorFuzz : public testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatorFuzz, InvariantsHoldUnderRandomPolicies) {
  const std::uint64_t seed = GetParam();
  workload::GeneratorOptions g;
  g.num_jobs = 1500;
  g.horizon_s = 1500.0 * 4.0;  // heavier than paper load: stress queues
  g.seed = seed;
  auto jobs = workload::GoogleTraceGenerator(g).generate();

  RandomPolicy alloc(seed * 3 + 1);
  RandomTimeoutPolicy power(seed * 5 + 2);
  sim::ClusterConfig cfg;
  cfg.num_servers = 7;  // deliberately awkward size
  sim::Cluster cluster(cfg, alloc, power);
  cluster.load_jobs(std::move(jobs));
  cluster.run();

  const auto s = cluster.snapshot();
  EXPECT_EQ(s.jobs_arrived, 1500u);
  EXPECT_EQ(s.jobs_completed, 1500u);
  EXPECT_DOUBLE_EQ(s.jobs_in_system, 0.0);
  EXPECT_GE(s.energy_joules, 0.0);
  EXPECT_LE(s.energy_joules, 7.0 * 145.0 * s.now * 1.001);

  // Per-job sanity: latency >= duration; start >= arrival; finish > start.
  for (const auto& r : cluster.metrics().job_records()) {
    EXPECT_GE(r.start, r.arrival - 1e-9);
    EXPECT_GT(r.finish, r.start);
  }

  // All servers end quiescent (sleep or idle) with nothing running.
  for (std::size_t i = 0; i < cluster.num_servers(); ++i) {
    EXPECT_EQ(cluster.server(i).jobs_on_server(), 0u);
    EXPECT_LE(cluster.server(i).utilization(0), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorFuzz,
                         testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

class HeavyLoadFuzz : public testing::TestWithParam<std::uint64_t> {};

TEST_P(HeavyLoadFuzz, OverloadedClusterStillConserves) {
  // 2 servers, demanding jobs: long queues are guaranteed; conservation and
  // FCFS progress must still hold.
  workload::GeneratorOptions g;
  g.num_jobs = 400;
  g.horizon_s = 400.0 * 2.0;
  g.cpu_min = 0.2;
  g.cpu_max = 0.6;
  g.cpu_exp_mean = 0.2;
  g.seed = GetParam();
  auto jobs = workload::GoogleTraceGenerator(g).generate();

  RandomPolicy alloc(GetParam());
  sim::ImmediateSleepPolicy power;
  sim::ClusterConfig cfg;
  cfg.num_servers = 2;
  sim::Cluster cluster(cfg, alloc, power);
  cluster.load_jobs(std::move(jobs));
  cluster.run();
  EXPECT_EQ(cluster.metrics().jobs_completed(), 400u);
  // With overload, mean latency must exceed mean duration (queueing found).
  EXPECT_GT(cluster.metrics().latency_stats().mean(),
            cluster.metrics().wait_stats().mean());
  EXPECT_GT(cluster.metrics().wait_stats().max(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeavyLoadFuzz, testing::Values(2u, 4u, 6u));

// ---- adversarial config text ------------------------------------------------

/// Every malformed input must surface as std::invalid_argument (or a
/// subclass) from the parse/bind layer — never UB, never silent acceptance.
void expect_rejected(const std::string& text) {
  SCOPED_TRACE("config text: " + text);
  EXPECT_THROW(
      {
        const common::Config cfg = common::Config::from_string(text);
        (void)core::experiment_config_from(cfg);
      },
      std::invalid_argument);
}

TEST(ConfigRobustness, MalformedLinesThrow) {
  expect_rejected("just a line with no equals\n");
  expect_rejected("= 1\n");                     // empty key
  expect_rejected("   =   \n");                 // empty key and value
  expect_rejected("num_servers =\n");           // empty value for an int key
  expect_rejected("num_servers = 4 extra\n");   // trailing junk after the int
}

TEST(ConfigRobustness, DuplicateKeysThrow) {
  expect_rejected("num_servers = 4\nnum_servers = 8\n");
  expect_rejected("faults.mtbf_s = 100\nfaults.mtbf_s = 100\n");  // even identical
}

TEST(ConfigRobustness, OutOfRangeNumericsThrow) {
  expect_rejected("num_servers = -3\n");
  expect_rejected("trace.num_jobs = -1\n");
  expect_rejected("pretrain_jobs = -2\n");
  expect_rejected("checkpoint_every_jobs = -1\n");
  expect_rejected("drl.subq_hidden = -1\n");
  expect_rejected("drl.batch_size = -1\n");
  expect_rejected("num_servers = 99999999999999999999999\n");  // overflows int64
  expect_rejected("num_servers = twelve\n");
  expect_rejected("watchdog_s = -5\n");
  expect_rejected("watchdog_s = nan\n");
}

TEST(ConfigRobustness, AbsurdFaultValuesThrow) {
  expect_rejected("faults.mtbf_s = -1\n");
  expect_rejected("faults.mtbf_s = nan\n");
  expect_rejected("faults.mtbf_s = 100\nfaults.mttr_s = 0\n");  // crashes, no repair
  expect_rejected("faults.evict_every_s = -0.5\n");
  expect_rejected("faults.backoff_jitter = 2\n");               // must be < 1
  expect_rejected("faults.backoff_jitter = -0.25\n");
  expect_rejected("faults.backoff_base_s = 900\nfaults.backoff_cap_s = 30\n");
  expect_rejected("faults.max_retries = -1\n");
  expect_rejected("faults.max_retries = 99999999\n");           // absurd budget
  expect_rejected("faults.horizon_padding_s = -10\n");
}

TEST(ConfigRobustness, ValidFaultKeysStillBind) {
  // The guard rails must not reject the documented shape.
  const common::Config cfg = common::Config::from_string(
      "num_servers = 6\n"
      "faults.mtbf_s = 14400\n"
      "faults.mttr_s = 600\n"
      "faults.evict_every_s = 21600\n"
      "faults.max_retries = 5\n"
      "faults.backoff_base_s = 30\n"
      "faults.backoff_cap_s = 600\n"
      "faults.backoff_jitter = 0.25\n"
      "faults.seed = 9\n"
      "watchdog_s = 120\n");
  const core::ExperimentConfig bound = core::experiment_config_from(cfg);
  EXPECT_TRUE(bound.faults.enabled());
  EXPECT_DOUBLE_EQ(bound.faults.mtbf_s, 14400.0);
  EXPECT_EQ(bound.faults.max_retries, 5u);
  EXPECT_DOUBLE_EQ(bound.watchdog_s, 120.0);
}

class ConfigSoupFuzz : public testing::TestWithParam<std::uint64_t> {};

TEST_P(ConfigSoupFuzz, RandomKeyValueSoupParsesOrThrowsCleanly) {
  // Random mixes of real keys and garbage values: the bind either yields a
  // validated config or throws std::invalid_argument. Anything else (crash,
  // sanitizer report, silent wrap-around) fails the suite.
  static const char* kKeys[] = {"num_servers",       "num_groups",        "pretrain_jobs",
                                "gemm_threads",      "trace.num_jobs",    "faults.mtbf_s",
                                "faults.mttr_s",     "faults.max_retries", "faults.backoff_jitter",
                                "watchdog_s",        "system",            "fixed_timeout_s",
                                "drl.subq_hidden",   "drl.batch_size"};
  static const char* kValues[] = {"0",    "1",        "-1",  "4",     "3.5",  "-3.5",
                                  "nan",  "inf",      "1e#", "",      "true", "hierarchical",
                                  "1e308", "99999999999999999999999", "0.25", "x"};
  common::Rng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    std::string text;
    const int lines = static_cast<int>(rng.uniform_int(1, 6));
    for (int l = 0; l < lines; ++l) {
      text += kKeys[rng.uniform_int(0, std::size(kKeys) - 1)];
      text += " = ";
      text += kValues[rng.uniform_int(0, std::size(kValues) - 1)];
      text += "\n";
    }
    try {
      const common::Config cfg = common::Config::from_string(text);
      const core::ExperimentConfig bound = core::experiment_config_from(cfg);
      bound.validate();  // accepted configs must be internally consistent
    } catch (const std::invalid_argument&) {
      // defined rejection — fine
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigSoupFuzz, testing::Values(11u, 23u, 47u));

}  // namespace
}  // namespace hcrl
