// Example: explore the power/latency trade-off (the Fig. 10 experiment) at
// laptop scale. Sweeps the local-tier reward weight w of Eqn. (5) and prints
// a Pareto table, plus the fixed-timeout baselines for contrast. The sweep
// cells run as one scenario batch (core::run_batch) on `threads` workers.
//
//   ./tradeoff_explorer [num_jobs] [threads]   (threads 0 = one per core)
#include <cstdio>
#include <exception>

#include "src/common/config.hpp"
#include "src/core/tradeoff.hpp"
#include "src/sim/types.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace hcrl;

  const std::size_t jobs = argc > 1 ? common::parse_count(argv[1], "num_jobs", 1) : 6000;

  core::TradeoffOptions opts;
  opts.threads = argc > 2 ? common::parse_count(argv[2], "threads") : 0;
  opts.base.num_servers = 30;
  opts.base.num_groups = 3;
  opts.base.trace.num_jobs = jobs;
  opts.base.trace.horizon_s = sim::kSecondsPerWeek * static_cast<double>(jobs) / 95000.0;
  opts.base.pretrain_jobs = jobs / 4;
  opts.base.checkpoint_every_jobs = 0;
  opts.local_weights = {0.2, 0.5, 0.8};
  opts.fixed_timeouts = {30.0, 90.0};
  opts.global_vm_weights = {0.01};

  std::printf("sweeping local weight w on %zu jobs, M = 30...\n\n", jobs);
  const auto result = core::explore_tradeoff(opts);

  std::printf("%-20s %8s %18s %18s\n", "system", "sweep", "avg latency (s)", "avg energy (Wh)");
  for (const auto& p : result.hierarchical) {
    std::printf("%-20s %8.2f %18.1f %18.2f\n", p.system.c_str(), p.sweep_value, p.avg_latency_s,
                p.avg_energy_wh);
  }
  for (const auto& curve : result.fixed_timeout_curves) {
    for (const auto& p : curve) {
      std::printf("%-20s %8.3f %18.1f %18.2f\n", p.system.c_str(), p.sweep_value,
                  p.avg_latency_s, p.avg_energy_wh);
    }
  }
  std::printf("\nLarger w favours power saving; smaller w favours latency. The adaptive\n"
              "timeout traces a curve fixed timeouts cannot reach (paper, Fig. 10).\n");
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
