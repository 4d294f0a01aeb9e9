// ExperimentConfig's derived fields and validation; the driver that runs a
// config lives in runner.cpp.
#include "src/core/experiment.hpp"

#include <stdexcept>

#include "src/policy/registry.hpp"

namespace hcrl::core {

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
  if (shards != 0) throw std::invalid_argument("ExperimentConfig: shards must be 0");
  if (!(sla_latency_s >= 0.0)) {  // +inf stays valid: no latency exceeds it
    throw std::invalid_argument("ExperimentConfig: sla_latency_s must be >= 0");
  }
  faults.validate();
  if (!(watchdog_s >= 0.0)) {
    throw std::invalid_argument("ExperimentConfig: watchdog_s must be >= 0");
  }
  // The selected pair's factories are the only check on policy names, option
  // keys and option values: build the pair and drop it, so a bad one fails
  // here, before any simulation state exists.
  (void)policy::build_system(*this);
}

}  // namespace hcrl::core
