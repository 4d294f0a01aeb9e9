// Quickstart: run the hierarchical framework against the baselines on a
// small synthetic trace and print the resulting energy/latency summary.
//
//   ./quickstart [num_jobs]
//
// This exercises the whole public API: trace generation, the DRL global
// tier, the LSTM+RL local tier, and the metrics pipeline.
#include <cstdio>
#include <exception>

#include "src/common/config.hpp"
#include "src/core/runner.hpp"
#include "src/policy/registry.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace hcrl;

  const std::size_t num_jobs = argc > 1 ? common::parse_count(argv[1], "num_jobs", 1) : 8000;

  core::ExperimentConfig cfg;
  cfg.num_servers = 30;
  cfg.num_groups = 3;
  cfg.trace.num_jobs = num_jobs;
  // Scale the horizon with the job count to keep the offered load constant.
  cfg.trace.horizon_s = sim::kSecondsPerWeek * static_cast<double>(num_jobs) / 95000.0;
  cfg.pretrain_jobs = num_jobs / 4;
  cfg.checkpoint_every_jobs = 0;

  std::printf("Simulating %zu jobs on %zu servers (horizon %.1f h)\n", num_jobs,
              cfg.num_servers, cfg.trace.horizon_s / 3600.0);
  std::printf("%-22s %12s %14s %12s %10s\n", "system", "energy(kWh)", "latency(1e6 s)",
              "power(W)", "wall(s)");

  for (const char* system : {"round-robin", "drl-only", "hierarchical"}) {
    core::Scenario scenario;
    scenario.name = system;
    scenario.config = cfg;
    policy::apply_system(scenario.config, system);
    const core::ExperimentResult r = core::run_scenario(scenario);
    const auto& s = r.final_snapshot;
    std::printf("%-22s %12.2f %14.3f %12.1f %10.1f\n", system, s.energy_kwh(),
                s.accumulated_latency_s / 1e6, s.average_power_watts, r.wall_seconds);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
