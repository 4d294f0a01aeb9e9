// Reproduces Fig. 8 (M = 30): (a) accumulated job latency versus number of
// completed jobs and (b) energy usage versus number of completed jobs, for
// round-robin, DRL-only and the hierarchical framework.
//
// The paper's qualitative shape: round-robin has the lowest latency curve
// but the steepest energy curve; the hierarchical framework's energy curve
// is the lowest throughout; its latency lies between the other two.
//
// The three systems are the "fig8/*" scenarios of the builtin registry,
// share one cached trace, and run concurrently on a ParallelRunner.
#include <cstdio>

#include "bench/bench_util.hpp"

namespace {

void print_series(const std::vector<hcrl::core::Scenario>& scenarios,
                  const std::vector<hcrl::core::ExperimentResult>& results) {
  std::printf("\nFig. 8(a): accumulated latency (1e6 s) vs jobs completed\n");
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

  std::printf("\nFig. 8(b): energy usage (kWh) vs jobs completed\n");
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
}

}  // namespace

int main() {
  const std::size_t jobs = hcrl::bench::env_jobs(95000);

  std::printf("=== Fig. 8: M = 30, %zu jobs ===\n", jobs);
  const auto scenarios = hcrl::core::ScenarioRegistry::builtin().make_group("fig8/", jobs);
  const auto results = hcrl::bench::run_parallel_sweep(scenarios);
  print_series(scenarios, results);

  hcrl::bench::print_result_header();
  for (std::size_t i = 0; i < results.size(); ++i) {
    hcrl::bench::print_result_row(scenarios[i].name, results[i]);
  }
  return 0;
}
