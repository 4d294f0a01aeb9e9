#include "src/core/config_binding.hpp"

#include <stdexcept>

#include "src/common/suggest.hpp"

namespace hcrl::core {

SystemKind system_kind_from_string(const std::string& name) {
  if (name == "round-robin") return SystemKind::kRoundRobin;
  if (name == "drl-only") return SystemKind::kDrlOnly;
  if (name == "hierarchical") return SystemKind::kHierarchical;
  if (name == "drl-fixed-timeout") return SystemKind::kDrlFixedTimeout;
  if (name == "least-loaded") return SystemKind::kLeastLoaded;
  if (name == "first-fit-packing") return SystemKind::kFirstFitPacking;
  throw std::invalid_argument(common::unknown_key_message(
      "system kind", name,
      {"round-robin", "drl-only", "hierarchical", "drl-fixed-timeout", "least-loaded",
       "first-fit-packing"}));
}

namespace {

/// Collect `prefix.<key> = value` entries into a per-policy option block
/// (reading them, so they don't trip the unknown-key check below).
common::Config option_block(const common::Config& config, const std::string& prefix) {
  common::Config block;
  for (const std::string& key : config.keys()) {
    if (key.size() > prefix.size() + 1 && key.compare(0, prefix.size(), prefix) == 0 &&
        key[prefix.size()] == '.') {
      block.set(key.substr(prefix.size() + 1), config.get_string(key));
    }
  }
  return block;
}

}  // namespace

ExperimentConfig experiment_config_from(const common::Config& config) {
  ExperimentConfig cfg;

  // Counts bound for size_t fields reject negatives here, where the offending
  // key name is still known, instead of wrapping to huge values in the cast.
  const auto non_negative = [&config](const char* key, std::size_t fallback) {
    const std::int64_t v = config.get_int(key, static_cast<std::int64_t>(fallback));
    if (v < 0) {
      throw std::invalid_argument(std::string("experiment_config_from: ") + key +
                                  " must be >= 0");
    }
    return static_cast<std::size_t>(v);
  };

  cfg.system = system_kind_from_string(config.get_string("system", "hierarchical"));
  cfg.num_servers = non_negative("num_servers", 30);
  cfg.num_groups = non_negative("num_groups", 3);
  cfg.fixed_timeout_s = config.get_double("fixed_timeout_s", cfg.fixed_timeout_s);
  cfg.pretrain_jobs = non_negative("pretrain_jobs", cfg.pretrain_jobs);
  cfg.learn_during_run = config.get_bool("learn_during_run", cfg.learn_during_run);
  cfg.checkpoint_every_jobs = non_negative("checkpoint_every_jobs", cfg.checkpoint_every_jobs);
  cfg.precision =
      nn::precision_from_string(config.get_string("precision", nn::to_string(cfg.precision)));
  const std::int64_t gemm_threads =
      config.get_int("gemm_threads", static_cast<std::int64_t>(cfg.gemm_threads));
  if (gemm_threads < 0) {
    throw std::invalid_argument("experiment_config_from: gemm_threads must be >= 0");
  }
  cfg.gemm_threads = static_cast<std::size_t>(gemm_threads);
  cfg.sla_latency_s = config.get_double("sla_latency_s", cfg.sla_latency_s);

  // Fault injection & harness robustness (validated by FaultConfig::validate
  // / ExperimentConfig::validate).
  cfg.faults.mtbf_s = config.get_double("faults.mtbf_s", cfg.faults.mtbf_s);
  cfg.faults.mttr_s = config.get_double("faults.mttr_s", cfg.faults.mttr_s);
  cfg.faults.evict_every_s = config.get_double("faults.evict_every_s", cfg.faults.evict_every_s);
  cfg.faults.max_retries = non_negative("faults.max_retries", cfg.faults.max_retries);
  cfg.faults.backoff_base_s = config.get_double("faults.backoff_base_s", cfg.faults.backoff_base_s);
  cfg.faults.backoff_cap_s = config.get_double("faults.backoff_cap_s", cfg.faults.backoff_cap_s);
  cfg.faults.backoff_jitter = config.get_double("faults.backoff_jitter", cfg.faults.backoff_jitter);
  cfg.faults.horizon_padding_s =
      config.get_double("faults.horizon_padding_s", cfg.faults.horizon_padding_s);
  cfg.faults.seed =
      static_cast<std::uint64_t>(config.get_int("faults.seed", static_cast<std::int64_t>(cfg.faults.seed)));
  cfg.watchdog_s = config.get_double("watchdog_s", cfg.watchdog_s);

  // Registry-backed policy selection (validated in ExperimentConfig::validate
  // against src/policy/registry.hpp, with did-you-mean diagnostics).
  cfg.allocator = config.get_string("allocator", cfg.allocator);
  cfg.power = config.get_string("power", cfg.power);
  cfg.allocator_opts = option_block(config, "allocator");
  cfg.power_opts = option_block(config, "power");

  // Trace.
  cfg.trace.num_jobs = non_negative("trace.num_jobs", cfg.trace.num_jobs);
  cfg.trace.horizon_s = config.get_double(
      "trace.horizon_s",
      sim::kSecondsPerWeek * static_cast<double>(cfg.trace.num_jobs) / 95000.0);
  cfg.trace.seed = static_cast<std::uint64_t>(config.get_int("trace.seed", 1));
  cfg.trace.duration_log_mean = config.get_double("trace.duration_log_mean", cfg.trace.duration_log_mean);
  cfg.trace.duration_log_sigma = config.get_double("trace.duration_log_sigma", cfg.trace.duration_log_sigma);
  cfg.trace.cpu_exp_mean = config.get_double("trace.cpu_exp_mean", cfg.trace.cpu_exp_mean);
  cfg.trace.diurnal_amplitude = config.get_double("trace.diurnal_amplitude", cfg.trace.diurnal_amplitude);
  cfg.trace.burst_multiplier = config.get_double("trace.burst_multiplier", cfg.trace.burst_multiplier);

  // Server / power model.
  cfg.server.power.idle_watts = config.get_double("server.idle_watts", cfg.server.power.idle_watts);
  cfg.server.power.peak_watts = config.get_double("server.peak_watts", cfg.server.power.peak_watts);
  cfg.server.power.transition_watts =
      config.get_double("server.transition_watts", cfg.server.power.transition_watts);
  cfg.server.t_on = config.get_double("server.t_on", cfg.server.t_on);
  cfg.server.t_off = config.get_double("server.t_off", cfg.server.t_off);
  cfg.server.hotspot_threshold =
      config.get_double("server.hotspot_threshold", cfg.server.hotspot_threshold);

  // Global tier.
  cfg.drl.beta = config.get_double("drl.beta", cfg.drl.beta);
  cfg.drl.w_power = config.get_double("drl.w_power", cfg.drl.w_power);
  cfg.drl.w_vms = config.get_double("drl.w_vms", cfg.drl.w_vms);
  cfg.drl.w_reliability = config.get_double("drl.w_reliability", cfg.drl.w_reliability);
  cfg.drl.w_chosen_queue = config.get_double("drl.w_chosen_queue", cfg.drl.w_chosen_queue);
  cfg.drl.guide_mix = config.get_double("drl.guide_mix", cfg.drl.guide_mix);
  cfg.drl.qnet.learning_rate = config.get_double("drl.learning_rate", cfg.drl.qnet.learning_rate);
  cfg.drl.qnet.subq_hidden = non_negative("drl.subq_hidden", cfg.drl.qnet.subq_hidden);
  cfg.drl.batch_size = non_negative("drl.batch_size", cfg.drl.batch_size);
  cfg.drl.seed = static_cast<std::uint64_t>(config.get_int("drl.seed", 7));

  // Local tier.
  cfg.local.w = config.get_double("local.w", cfg.local.w);
  cfg.local.predictor = config.get_string("local.predictor", cfg.local.predictor);
  cfg.local.shared_table = config.get_bool("local.shared_table", cfg.local.shared_table);
  cfg.local.agent.learning_rate =
      config.get_double("local.learning_rate", cfg.local.agent.learning_rate);
  cfg.local.agent.beta = config.get_double("local.beta", cfg.local.agent.beta);
  cfg.local.seed = static_cast<std::uint64_t>(config.get_int("local.seed", 13));

  const auto unused = config.unused_keys();
  if (!unused.empty()) {
    std::string msg = "experiment_config_from: unknown keys:";
    for (const auto& k : unused) msg += " " + k;
    throw std::invalid_argument(msg);
  }

  cfg.finalize();
  cfg.validate();
  return cfg;
}

}  // namespace hcrl::core
