// Reproduces Fig. 9 (M = 40): same series as Fig. 8 on the larger cluster.
// The paper's observation: the DRL-based systems' energy curves barely move
// when M grows from 30 to 40, while round-robin's energy grows with M.
//
// The three systems are the "fig9/*" scenarios of the builtin registry,
// share one cached trace, and run concurrently on a ParallelRunner — the
// figure regenerates in roughly the wall time of its slowest system instead
// of the sum of all three (HCRL_BENCH_THREADS overrides the worker count).
#include <cstdio>

#include "bench/bench_util.hpp"

int main() {
  const std::size_t jobs = hcrl::bench::env_jobs(95000);

  std::printf("=== Fig. 9: M = 40, %zu jobs ===\n", jobs);
  const auto scenarios = hcrl::core::ScenarioRegistry::builtin().make_group("fig9/", jobs);
  const auto results = hcrl::bench::run_parallel_sweep(scenarios);

  std::printf("\nFig. 9(a): accumulated latency (1e6 s) vs jobs completed\n");
  std::printf("%10s", "jobs");
  for (const auto& sc : scenarios) std::printf(" %20s", sc.name.c_str());
  std::printf("\n");
  const std::size_t rows = results[0].series.size();
  for (std::size_t i = 0; i < rows; ++i) {
    std::printf("%10zu", results[0].series[i].jobs_completed);
    for (const auto& r : results) {
      std::printf(" %20.3f", i < r.series.size() ? r.series[i].accumulated_latency_s / 1e6 : 0.0);
    }
    std::printf("\n");
  }

  std::printf("\nFig. 9(b): energy usage (kWh) vs jobs completed\n");
  std::printf("%10s", "jobs");
  for (const auto& sc : scenarios) std::printf(" %20s", sc.name.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < rows; ++i) {
    std::printf("%10zu", results[0].series[i].jobs_completed);
    for (const auto& r : results) {
      std::printf(" %20.2f", i < r.series.size() ? r.series[i].energy_kwh : 0.0);
    }
    std::printf("\n");
  }

  hcrl::bench::print_result_header();
  for (std::size_t i = 0; i < results.size(); ++i) {
    hcrl::bench::print_result_row(scenarios[i].name, results[i]);
  }
  return 0;
}
