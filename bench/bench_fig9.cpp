// Reproduces Fig. 9 (M = 40): same series as Fig. 8 on the larger cluster.
// The paper's observation: the DRL-based systems' energy curves barely move
// when M grows from 30 to 40, while round-robin's energy grows with M.
//
// The three systems are the "fig9/*" scenarios of the builtin registry,
// share one cached trace, and run concurrently as one batch — the figure
// regenerates in roughly the wall time of its slowest system instead of the
// sum of all three (HCRL_BENCH_THREADS overrides the worker count).
#include <cstdio>

#include "bench/bench_util.hpp"

int main() {
  const std::size_t jobs = hcrl::bench::env_jobs(95000);

  std::printf("=== Fig. 9: M = 40, %zu jobs ===\n", jobs);
  const auto scenarios = hcrl::core::ScenarioRegistry::builtin().make_group("fig9/", jobs);
  const auto results = hcrl::bench::run_sweep(scenarios);
  hcrl::bench::print_figure_series(9, scenarios, results);

  hcrl::bench::print_result_header();
  for (std::size_t i = 0; i < results.size(); ++i) {
    hcrl::bench::print_result_row(scenarios[i].name, results[i]);
  }
  return 0;
}
