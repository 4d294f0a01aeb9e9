// Bind flat key/value configs (common::Config) to ExperimentConfig.
//
// This is the declarative front door: every knob a bench or example sets
// programmatically can be set from a `key = value` file, e.g.
//
//   system = hierarchical
//   power.predictor = window
//   num_servers = 30
//   num_groups = 3
//   trace.num_jobs = 95000
//   allocator.w_vms = 0.01
//   power.w = 0.5
//
// `system` names a paper preset of the policy pair (policy::apply_system);
// `allocator` / `power` override either half of it, and the
// `allocator.<key>` / `power.<key>` blocks configure the resulting pair:
// the binder names no policy's keys, each registry entry owns its own.
// Unknown keys are reported as errors so config files never rot silently.
#pragma once

#include "src/common/config.hpp"
#include "src/core/experiment.hpp"

namespace hcrl::core {

/// Build an ExperimentConfig from a flat config. Starts from defaults,
/// overrides any provided key, then validates. Throws std::invalid_argument
/// on unknown keys or invalid values.
ExperimentConfig experiment_config_from(const common::Config& config);

}  // namespace hcrl::core
