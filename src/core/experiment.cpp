// run_experiment / run_comparison are source-compatibility wrappers over the
// composable Scenario/Runner API; the actual driver lives in runner.cpp.
#include "src/core/experiment.hpp"

#include <stdexcept>

#include "src/core/runner.hpp"
#include "src/core/scenario.hpp"
#include "src/policy/registry.hpp"

namespace hcrl::core {

std::string to_string(SystemKind kind) {
  switch (kind) {
    case SystemKind::kRoundRobin: return "round-robin";
    case SystemKind::kDrlOnly: return "drl-only";
    case SystemKind::kHierarchical: return "hierarchical";
    case SystemKind::kDrlFixedTimeout: return "drl-fixed-timeout";
    case SystemKind::kLeastLoaded: return "least-loaded";
    case SystemKind::kFirstFitPacking: return "first-fit-packing";
  }
  return "?";
}

void ExperimentConfig::finalize() {
  drl.qnet.encoder.num_servers = num_servers;
  drl.qnet.encoder.num_groups = num_groups;
  drl.qnet.encoder.num_resources = server.num_resources;
  drl.qnet.precision = precision;
  local.num_servers = num_servers;
  local.power_scale_watts = server.power.peak_watts;
  local.t_on_s = server.t_on;
  local.t_off_s = server.t_off;
  local.transition_watts = server.power.transition_watts;
  local.lstm.precision = precision;
}

void ExperimentConfig::validate() const {
  if (num_servers == 0) throw std::invalid_argument("ExperimentConfig: num_servers == 0");
  if (num_groups == 0 || num_servers % num_groups != 0) {
    throw std::invalid_argument("ExperimentConfig: num_groups must divide num_servers");
  }
  trace.validate();
  server.validate();
  if (system == SystemKind::kDrlFixedTimeout && fixed_timeout_s < 0.0) {
    throw std::invalid_argument("ExperimentConfig: negative fixed timeout");
  }
  if (shards != 0) throw std::invalid_argument("ExperimentConfig: shards must be 0");
  if (sla_latency_s < 0.0) {
    throw std::invalid_argument("ExperimentConfig: negative sla_latency_s");
  }
  faults.validate();
  if (!(watchdog_s >= 0.0)) {
    throw std::invalid_argument("ExperimentConfig: watchdog_s must be >= 0");
  }
  // Registry-backed selection: unknown allocator/power/predictor names and
  // unknown per-policy option keys fail here with did-you-mean diagnostics.
  policy::validate_system_selection(*this);
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  Scenario scenario;
  scenario.name = to_string(config.system);
  scenario.config = config;
  return run_scenario(scenario);
}

std::vector<ExperimentResult> run_comparison(const ExperimentConfig& base,
                                             const std::vector<SystemKind>& systems) {
  LogObserver log;
  return SerialRunner().run(comparison_scenarios(base, systems), &log);
}

}  // namespace hcrl::core
