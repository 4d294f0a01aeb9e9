// Reproduces Fig. 8 (M = 30): (a) accumulated job latency versus number of
// completed jobs and (b) energy usage versus number of completed jobs, for
// round-robin, DRL-only and the hierarchical framework.
//
// The paper's qualitative shape: round-robin has the lowest latency curve
// but the steepest energy curve; the hierarchical framework's energy curve
// is the lowest throughout; its latency lies between the other two.
//
// The three systems are the "fig8/*" scenarios of the builtin registry,
// share one cached trace, and run concurrently as one batch.
#include <cstdio>

#include "bench/bench_util.hpp"

int main() {
  const std::size_t jobs = hcrl::bench::env_jobs(95000);

  std::printf("=== Fig. 8: M = 30, %zu jobs ===\n", jobs);
  const auto scenarios = hcrl::core::ScenarioRegistry::builtin().make_group("fig8/", jobs);
  const auto results = hcrl::bench::run_sweep(scenarios);
  hcrl::bench::print_figure_series(8, scenarios, results);

  hcrl::bench::print_result_header();
  for (std::size_t i = 0; i < results.size(); ++i) {
    hcrl::bench::print_result_row(scenarios[i].name, results[i]);
  }
  return 0;
}
