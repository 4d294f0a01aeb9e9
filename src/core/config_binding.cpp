#include "src/core/config_binding.hpp"

#include <stdexcept>

#include "src/policy/registry.hpp"

namespace hcrl::core {

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

  cfg.num_servers = config.get_count("num_servers", 30);
  cfg.num_groups = config.get_count("num_groups", 3);
  cfg.pretrain_jobs = config.get_count("pretrain_jobs", cfg.pretrain_jobs);
  cfg.learn_during_run = config.get_bool("learn_during_run", cfg.learn_during_run);
  cfg.checkpoint_every_jobs =
      config.get_count("checkpoint_every_jobs", cfg.checkpoint_every_jobs);
  cfg.precision =
      nn::precision_from_string(config.get_string("precision", nn::to_string(cfg.precision)));
  cfg.sla_latency_s = config.get_double("sla_latency_s", cfg.sla_latency_s);

  // Fault injection & harness robustness (validated by FaultConfig::validate
  // / ExperimentConfig::validate).
  cfg.faults.mtbf_s = config.get_double("faults.mtbf_s", cfg.faults.mtbf_s);
  cfg.faults.mttr_s = config.get_double("faults.mttr_s", cfg.faults.mttr_s);
  cfg.faults.evict_every_s = config.get_double("faults.evict_every_s", cfg.faults.evict_every_s);
  cfg.faults.max_retries = config.get_count("faults.max_retries", cfg.faults.max_retries);
  cfg.faults.backoff_base_s = config.get_double("faults.backoff_base_s", cfg.faults.backoff_base_s);
  cfg.faults.backoff_cap_s = config.get_double("faults.backoff_cap_s", cfg.faults.backoff_cap_s);
  cfg.faults.backoff_jitter = config.get_double("faults.backoff_jitter", cfg.faults.backoff_jitter);
  cfg.faults.horizon_padding_s =
      config.get_double("faults.horizon_padding_s", cfg.faults.horizon_padding_s);
  cfg.faults.seed =
      static_cast<std::uint64_t>(config.get_int("faults.seed", static_cast<std::int64_t>(cfg.faults.seed)));
  cfg.watchdog_s = config.get_double("watchdog_s", cfg.watchdog_s);

  // Registry-backed policy selection: a `system` preset names the pair,
  // `allocator` / `power` override a half, and each option block belongs to
  // the policy that results (ExperimentConfig::validate builds the pair, so
  // its factories check every key and value).
  if (config.has("system")) policy::apply_system(cfg, config.get_string("system"));
  cfg.allocator = config.get_string("allocator", cfg.allocator);
  cfg.power = config.get_string("power", cfg.power);
  cfg.allocator_opts = option_block(config, "allocator");
  cfg.power_opts = option_block(config, "power");

  // Trace.
  cfg.trace.num_jobs = config.get_count("trace.num_jobs", cfg.trace.num_jobs);
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

  if (config.has("fixed_timeout_s")) {
    throw std::invalid_argument(
        "experiment_config_from: unknown key 'fixed_timeout_s' (did you mean 'power.timeout_s'?)");
  }
  const auto unused = config.unused_keys();
  if (!unused.empty()) {
    std::string msg = "experiment_config_from: unknown keys:";
    for (const auto& k : unused) msg += " " + k;
    throw std::invalid_argument(msg);
  }

  cfg.validate();
  return cfg;
}

}  // namespace hcrl::core
