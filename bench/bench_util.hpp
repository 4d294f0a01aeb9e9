// Shared helpers for the reproduction benchmarks.
//
// Each bench binary regenerates one table or figure of the paper via the
// Scenario/Runner API (src/core/scenario.hpp, src/core/runner.hpp). Scale
// and parallelism can be overridden for quick runs:
//   HCRL_BENCH_JOBS=5000 ./bench_table1     (default: the paper's 95,000)
//   HCRL_BENCH_THREADS=4 ./bench_fig9       (default: one per hardware thread)
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/core/runner.hpp"
#include "src/core/scenario.hpp"

namespace hcrl::bench {

inline std::size_t env_jobs(std::size_t fallback) {
  if (const char* v = std::getenv("HCRL_BENCH_JOBS")) {
    const long long n = std::atoll(v);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return fallback;
}

/// Worker count for the paper-figure sweeps; 0 = one per hardware thread
/// (the ParallelRunner default).
inline std::size_t env_threads(std::size_t fallback = 0) {
  if (const char* v = std::getenv("HCRL_BENCH_THREADS")) {
    const long long n = std::atoll(v);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return fallback;
}

inline void print_result_row(const std::string& label, const core::ExperimentResult& r) {
  const auto& s = r.final_snapshot;
  std::printf("%-30s %12.2f %16.2f %12.2f %10.1f\n", label.c_str(), s.energy_kwh(),
              s.accumulated_latency_s / 1e6, s.average_power_watts, r.wall_seconds);
}

inline void print_result_header(const char* label = "scenario") {
  std::printf("%-30s %12s %16s %12s %10s\n", label, "energy(kWh)", "latency(1e6 s)",
              "power(W)", "wall(s)");
}

/// Run a scenario batch on a ParallelRunner and report how the sweep scaled:
/// sum of per-scenario walls (the serial-equivalent cost) versus the sweep's
/// actual elapsed wall clock.
inline std::vector<core::ExperimentResult> run_parallel_sweep(
    const std::vector<core::Scenario>& scenarios) {
  core::ParallelRunner runner(env_threads());
  const auto t0 = std::chrono::steady_clock::now();
  auto results = runner.run(scenarios);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  double serial_equiv = 0.0;
  for (const auto& r : results) serial_equiv += r.wall_seconds;
  // The summed per-scenario walls equal a serial run's elapsed time only
  // when each worker has a dedicated core; on oversubscribed machines the
  // per-scenario walls inflate with timesharing, so the ratio is an upper
  // bound there.
  std::printf("\nsweep: %zu scenarios on %zu workers: %.1f s elapsed; per-scenario walls "
              "sum to %.1f s (~%.2fx vs serial on dedicated cores)\n",
              scenarios.size(), runner.num_workers(), elapsed, serial_equiv,
              elapsed > 0.0 ? serial_equiv / elapsed : 0.0);
  return results;
}

}  // namespace hcrl::bench
