// Experiment driver: builds a policy pair and measures it.
//
// An experiment names its global-tier allocator and local-tier power
// manager as registry entries (src/policy/registry.hpp). The paper's
// systems (§VII-B) are presets of that pair (policy::apply_system):
//   round-robin       — round-robin broker, servers never sleep (baseline);
//   drl-only          — DRL global tier, "ad hoc" immediate sleep locally;
//   hierarchical      — DRL global tier + RL/LSTM local tier (the paper's,
//                       and the ExperimentConfig default);
//   drl-fixed-timeout — DRL global tier + fixed idle timeout (Fig. 10
//                       baselines, power.timeout_s, default 60 s);
//   least-loaded / first-fit-packing — extra non-learning references.
//
// Learning allocators get an offline construction phase first (§IV:
// experience accumulation + DNN pre-training): the driver replays the first
// `pretrain_jobs` jobs of the measured trace with learning enabled, then
// runs the whole trace. The paper pre-trains on separate cluster traces;
// here the pretraining jobs are also part of the measured run.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/config.hpp"
#include "src/nn/precision.hpp"
#include "src/sim/cluster.hpp"
#include "src/sim/fault/fault.hpp"
#include "src/workload/generator.hpp"

namespace hcrl::core {

/// Vestigial stub, no config key: bench_e2e names it; the next benchmark change deletes it.
enum class SystemKind { kRoundRobin };

struct ExperimentConfig {
  std::size_t num_servers = 30;
  std::size_t num_groups = 3;  // K for the grouped Q-network
  workload::GeneratorOptions trace;
  sim::ServerConfig server;

  /// The policy pair: registry names (src/policy/registry.hpp) of the
  /// global-tier allocator and the local-tier power manager, defaulting to
  /// the paper's hierarchical system. The option blocks carry the keys of
  /// the named policies (config file syntax: `allocator = random-k` +
  /// `allocator.k = 4`, `power = fixed-timeout` + `power.timeout_s = 45`);
  /// policy::apply_system sets the pair from a paper system preset.
  std::string allocator = "drl";
  std::string power = "rl-dpm";
  common::Config allocator_opts;
  common::Config power_opts;

  /// Latency SLA threshold in seconds: completed jobs whose latency exceeds
  /// it count into ExperimentResult::sla_violations. 0 disables the count.
  double sla_latency_s = 0.0;

  /// Seeds the allocator's and the power policy's `seed` options fall back
  /// to (`drl`, `random` and `random-k`; `rl-dpm`). No config key: a nonzero
  /// Scenario::seed re-derives them, and an explicit option beats both.
  std::uint64_t allocator_seed = 7;
  std::uint64_t power_seed = 13;

  /// Offline construction phase: replay this many jobs from the head of the
  /// trace (with learning on) before the measured run; 0 disables.
  std::size_t pretrain_jobs = 20000;
  /// Keep learning enabled during the measured run (the paper's online
  /// deep Q-learning phase); false freezes the policy after pretraining:
  /// the global tier's DQN and the local tier's Q-tables. It does not
  /// freeze the local tier's workload predictors: an `lstm` predictor keeps
  /// training on the gaps it observes, so frozen cells still pay for LSTM
  /// training (pinned by RlPowerManager.LearningOffStillTrainsLstmPredictor).
  bool learn_during_run = true;

  /// Record a metrics checkpoint every N completed jobs (0 disables).
  std::size_t checkpoint_every_jobs = 5000;

  /// Scalar type of every NN in the experiment (global-tier Sub-Q +
  /// autoencoder, local-tier LSTM predictors), which the `drl` and `rl-dpm`
  /// factories read; defaults to the process-wide default (HCRL_PRECISION
  /// environment variable, f64 when unset).
  nn::Precision precision = nn::default_precision();
  /// Vestigial stub, no config key: bench_e2e assigns it; the next benchmark change deletes it.
  std::size_t gemm_threads = 0;
  /// Vestigial stub, no config key: bench_e2e reads it; the next benchmark change deletes it.
  bool batch_decisions = true;
  /// Vestigial stub, no config key: bench_e2e assigns it; the next benchmark change deletes it.
  SystemKind system = SystemKind::kRoundRobin;
  /// Vestigial stub, no config key: bench_e2e assigns it; the next benchmark change deletes it.
  double fixed_timeout_s = 60.0;
  /// Vestigial: must be 0 (validate() rejects anything else) and has no
  /// config key. It stays only because bench_e2e checks it, until the next
  /// benchmark change.
  std::size_t shards = 0;

  /// Deterministic fault injection for the measured run (config keys
  /// `faults.*`; see src/sim/fault/fault.hpp). Disabled by default
  /// (mtbf_s == 0 && evict_every_s == 0). Pretraining always runs
  /// fault-free: the offline construction phase models a clean cluster and
  /// the faulty measured run is what the robustness scenarios score.
  sim::FaultConfig faults;

  /// Per-scenario watchdog: abort the run (pretraining included) with a
  /// std::runtime_error once it exceeds this many wall-clock seconds, so a
  /// hung cell becomes a per-cell error outcome instead of a hung grid.
  /// 0 disables. Checked cooperatively every 64 events — it never perturbs
  /// simulation results, only bounds how long a cell may take.
  double watchdog_s = 0.0;

  /// Checks the config's own fields, then builds the selected policy pair
  /// and discards it, so the registry's factories check every option.
  void validate() const;
  /// validate() without the policy pair: policy::build_system runs it before
  /// any factory, so every build is a full check.
  void validate_fields() const;
};

struct CheckpointRow {
  std::size_t jobs_completed = 0;
  double sim_time_s = 0.0;
  double accumulated_latency_s = 0.0;
  double energy_kwh = 0.0;
  double average_power_w = 0.0;
};

struct ExperimentResult {
  /// Registry names of the policies that ran (ExperimentConfig::allocator
  /// and ::power).
  std::string allocator;
  std::string power;
  sim::MetricsSnapshot final_snapshot;
  std::vector<CheckpointRow> series;
  workload::TraceStats trace_stats;
  double wall_seconds = 0.0;
  std::size_t servers_on_at_end = 0;
  /// Tail latency over completed jobs; 0 when no job completed.
  double latency_p95_s = 0.0;
  double latency_p99_s = 0.0;
  /// Completed jobs with latency > config.sla_latency_s (0 when disabled).
  std::size_t sla_violations = 0;
};

}  // namespace hcrl::core
