// Quickstart: run the hierarchical framework against the baselines on a
// small synthetic trace and print the resulting energy/latency summary.
//
//   ./quickstart [num_jobs]
//
// This exercises the whole public API: trace generation, the DRL global
// tier, the LSTM+RL local tier, and the metrics pipeline.
#include <charconv>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "src/core/experiment.hpp"

namespace {

/// Parses a positive job count; throws std::invalid_argument otherwise.
std::size_t parse_job_count(const std::string& text) {
  std::size_t n = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), n);
  if (ec != std::errc() || end != text.data() + text.size() || n == 0) {
    throw std::invalid_argument("num_jobs must be a positive integer, got '" + text + "'");
  }
  return n;
}

int run(int argc, char** argv) {
  using namespace hcrl;

  const std::size_t num_jobs = argc > 1 ? parse_job_count(argv[1]) : 8000;

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

  const auto systems = {core::SystemKind::kRoundRobin, core::SystemKind::kDrlOnly,
                        core::SystemKind::kHierarchical};
  for (core::SystemKind kind : systems) {
    core::ExperimentConfig run_cfg = cfg;
    run_cfg.system = kind;
    const core::ExperimentResult r = core::run_experiment(run_cfg);
    const auto& s = r.final_snapshot;
    std::printf("%-22s %12.2f %14.3f %12.1f %10.1f\n", r.system.c_str(), s.energy_kwh(),
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
