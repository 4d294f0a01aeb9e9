// Reproduces Fig. 10: trade-off curves between average per-job latency and
// average per-job energy. The hierarchical framework sweeps the local-tier
// reward weight w (Eqn. 5); fixed-timeout baselines (30/60/90 s) sweep the
// global tier's latency weight. The paper's claim: the hierarchical curve
// achieves "the smallest area against the axes" — the best trade-off.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "src/core/tradeoff.hpp"

int main() {
  // The sweep runs 5 + 3*3 = 14 full simulations; default to a reduced
  // trace so the whole figure regenerates in minutes. The cells run as one
  // scenario batch (HCRL_BENCH_THREADS overrides the worker count), so wall
  // time shrinks toward the slowest single cell.
  const std::size_t jobs = hcrl::bench::env_jobs(20000);

  hcrl::core::TradeoffOptions opts;
  opts.base = hcrl::core::paper_experiment_config(30, jobs);
  opts.local_weights = {0.1, 0.3, 0.5, 0.7, 0.9};
  opts.fixed_timeouts = {30.0, 60.0, 90.0};
  opts.global_vm_weights = {0.002, 0.01, 0.05};
  opts.threads = hcrl::bench::env_threads();

  std::printf("=== Fig. 10: power/latency trade-off, M = 30, %zu jobs ===\n", jobs);
  const auto result = hcrl::core::explore_tradeoff(opts);

  std::printf("\n%-20s %12s %18s %18s\n", "system", "sweep", "avg latency (s)",
              "avg energy (Wh)");
  for (const auto& p : result.hierarchical) {
    std::printf("%-20s %12.3f %18.1f %18.2f\n", p.system.c_str(), p.sweep_value,
                p.avg_latency_s, p.avg_energy_wh);
  }
  for (const auto& curve : result.fixed_timeout_curves) {
    for (const auto& p : curve) {
      std::printf("%-20s %12.3f %18.1f %18.2f\n", p.system.c_str(), p.sweep_value,
                  p.avg_latency_s, p.avg_energy_wh);
    }
  }

  std::printf("\ntrade-off area score (mean latency*energy; lower = better):\n");
  std::printf("%-20s %14.1f\n", "hierarchical", hcrl::core::tradeoff_area(result.hierarchical));
  for (std::size_t i = 0; i < result.fixed_timeout_curves.size(); ++i) {
    std::printf("fixed-timeout-%-6.0f %14.1f\n", opts.fixed_timeouts[i],
                hcrl::core::tradeoff_area(result.fixed_timeout_curves[i]));
  }
  std::printf("(paper: hierarchical gives the smallest area; e.g. vs the 90 s baseline, "
              "up to 16.16%% latency saving at equal energy and 16.20%% energy saving at "
              "equal latency)\n");
  return 0;
}
