#include "src/core/tradeoff.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "src/common/log.hpp"
#include "src/core/runner.hpp"
#include "src/core/scenario.hpp"
#include "src/policy/registry.hpp"

namespace hcrl::core {

namespace {

TradeoffPoint to_point(const ExperimentResult& r, const std::string& system, double sweep) {
  TradeoffPoint p;
  p.system = system;
  p.sweep_value = sweep;
  const auto& s = r.final_snapshot;
  const double n = static_cast<double>(std::max<std::size_t>(1, s.jobs_completed));
  p.avg_latency_s = s.accumulated_latency_s / n;
  p.avg_energy_wh = s.energy_joules / 3600.0 / n;
  p.energy_kwh = s.energy_kwh();
  p.accumulated_latency_s = s.accumulated_latency_s;
  return p;
}

}  // namespace

TradeoffResult explore_tradeoff(const TradeoffOptions& options) {
  if (options.local_weights.empty()) {
    throw std::invalid_argument("explore_tradeoff: no local weights");
  }

  // The whole grid as one scenario batch: the hierarchical curve first, then
  // one fixed-timeout curve per timeout. Every cell runs on the same trace
  // (the batch caches it once), and the batch order is the result order.
  struct Cell {
    std::string curve_label;
    double sweep = 0.0;
  };
  std::vector<Scenario> scenarios;
  std::vector<Cell> cells;

  for (double w : options.local_weights) {
    Scenario s;
    s.name = "hierarchical/w=" + std::to_string(w);
    s.config = options.base;
    policy::apply_system(s.config, "hierarchical");
    s.config.power_opts.set("w", w);
    scenarios.push_back(std::move(s));
    cells.push_back({"hierarchical", w});
  }
  for (double timeout : options.fixed_timeouts) {
    const std::string label = "fixed-timeout-" + std::to_string(static_cast<int>(timeout));
    for (double w_vms : options.global_vm_weights) {
      Scenario s;
      s.name = label + "/w_vms=" + std::to_string(w_vms);
      s.config = options.base;
      policy::apply_system(s.config, "drl-fixed-timeout");
      s.config.power_opts.set("timeout_s", timeout);
      s.config.allocator_opts.set("w_vms", w_vms);
      scenarios.push_back(std::move(s));
      cells.push_back({label, w_vms});
    }
  }
  const std::vector<ExperimentResult> results = run_batch(scenarios, options.threads);

  TradeoffResult result;
  std::size_t i = 0;
  for (; i < options.local_weights.size(); ++i) {
    result.hierarchical.push_back(to_point(results[i], cells[i].curve_label, cells[i].sweep));
    common::log_info() << "tradeoff hierarchical w=" << cells[i].sweep
                       << " latency/job=" << result.hierarchical.back().avg_latency_s
                       << "s energy/job=" << result.hierarchical.back().avg_energy_wh << "Wh";
  }
  for (std::size_t t = 0; t < options.fixed_timeouts.size(); ++t) {
    std::vector<TradeoffPoint> curve;
    for (std::size_t k = 0; k < options.global_vm_weights.size(); ++k, ++i) {
      curve.push_back(to_point(results[i], cells[i].curve_label, cells[i].sweep));
      common::log_info() << "tradeoff " << cells[i].curve_label << " w_vms=" << cells[i].sweep
                         << " latency/job=" << curve.back().avg_latency_s
                         << "s energy/job=" << curve.back().avg_energy_wh << "Wh";
    }
    result.fixed_timeout_curves.push_back(std::move(curve));
  }
  return result;
}

double tradeoff_area(const std::vector<TradeoffPoint>& curve) {
  if (curve.empty()) throw std::invalid_argument("tradeoff_area: empty curve");
  double total = 0.0;
  for (const auto& p : curve) total += p.avg_latency_s * p.avg_energy_wh;
  return total / static_cast<double>(curve.size());
}

}  // namespace hcrl::core
