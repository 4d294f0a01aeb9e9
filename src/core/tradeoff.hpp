// Power/latency trade-off exploration (Fig. 10 of the paper).
//
// The hierarchical framework traces its trade-off curve by sweeping the
// local-tier reward weight w (Eqn. 5): large w favours power, small w
// favours latency. The fixed-timeout baselines (30/60/90 s) trace theirs by
// sweeping the global tier's power-vs-latency reward ratio — and, as the
// paper notes, cannot reach every point of the space.
#pragma once

#include <string>
#include <vector>

#include "src/core/experiment.hpp"

namespace hcrl::core {

struct TradeoffPoint {
  std::string system;
  double sweep_value = 0.0;          // w for hierarchical; global ratio for baselines
  double avg_latency_s = 0.0;        // per completed job
  double avg_energy_wh = 0.0;        // per completed job, watt-hours
  double energy_kwh = 0.0;           // totals, for reference
  double accumulated_latency_s = 0.0;
};

struct TradeoffOptions {
  ExperimentConfig base;                       // trace/cluster/DRL settings
  std::vector<double> local_weights = {0.1, 0.3, 0.5, 0.7, 0.9};
  std::vector<double> fixed_timeouts = {30.0, 60.0, 90.0};
  /// Global w_vms values swept for the fixed-timeout baselines (w_power is
  /// held at the base value so the ratio varies).
  std::vector<double> global_vm_weights = {0.01, 0.05, 0.2};
  /// Worker count for the sweep's batch (run_batch): 1 = serial, 0 = one
  /// per hardware thread. Results are identical for every setting.
  std::size_t threads = 1;
};

struct TradeoffResult {
  std::vector<TradeoffPoint> hierarchical;
  /// One curve per fixed timeout, same order as options.fixed_timeouts.
  std::vector<std::vector<TradeoffPoint>> fixed_timeout_curves;
};

TradeoffResult explore_tradeoff(const TradeoffOptions& options);

/// Area-under-curve style score: mean of (latency * energy) products along a
/// curve; lower is a better trade-off (the paper's "smallest area" claim).
double tradeoff_area(const std::vector<TradeoffPoint>& curve);

}  // namespace hcrl::core
