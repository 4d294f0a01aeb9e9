// ExperimentConfig validation; runner.cpp runs a config.
#include "src/core/experiment.hpp"

#include <stdexcept>

#include "src/policy/registry.hpp"

namespace hcrl::core {

void ExperimentConfig::validate() const {
  // The selected pair's factories are the only check on policy names, option
  // keys and option values: build the pair (which checks the fields first)
  // and drop it, so a bad one fails here, before any simulation state exists.
  (void)policy::build_system(*this);
}

void ExperimentConfig::validate_fields() const {
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
}

}  // namespace hcrl::core
