// Shared helpers for the reproduction benchmarks.
//
// Each bench binary regenerates one table or figure of the paper via the
// Scenario / batch API (src/core/scenario.hpp, src/core/runner.hpp). Scale
// and parallelism can be overridden for quick runs:
//   HCRL_BENCH_JOBS=5000 ./bench_table1     (default: the paper's 95,000)
//   HCRL_BENCH_THREADS=4 ./bench_fig9       (default, or 0: one per hardware thread)
// Both take digits only (common::parse_count); any other value prints an
// error naming the variable and exits 1.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/common/config.hpp"
#include "src/core/runner.hpp"
#include "src/core/scenario.hpp"

namespace hcrl::bench {

/// The count in environment variable `name` (at least `min`), or nullopt
/// when it is unset. A malformed or too-small value exits the process.
inline std::optional<std::size_t> env_count(const char* name, std::size_t min) {
  const char* v = std::getenv(name);
  if (v == nullptr) return std::nullopt;
  try {
    return common::parse_count(v, name, min);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(1);
  }
}

inline std::size_t env_jobs(std::size_t fallback) {
  return env_count("HCRL_BENCH_JOBS", 1).value_or(fallback);
}

/// Worker count for the paper-figure sweeps: HCRL_BENCH_THREADS, else (or
/// at 0) one per hardware thread.
inline std::size_t env_threads() {
  const std::size_t n = env_count("HCRL_BENCH_THREADS", 0).value_or(0);
  return n > 0 ? n : std::max(1u, std::thread::hardware_concurrency());
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

/// The two panels of Figs. 8 and 9: (a) accumulated latency and (b) energy
/// against jobs completed, one column per scenario, one row per checkpoint.
inline void print_figure_series(int figure, const std::vector<core::Scenario>& scenarios,
                                const std::vector<core::ExperimentResult>& results) {
  const auto panel = [&](const char* title, int decimals, auto value) {
    std::printf("\nFig. %d%s vs jobs completed\n", figure, title);
    std::printf("%10s", "jobs");
    for (const auto& sc : scenarios) std::printf(" %20s", sc.name.c_str());
    std::printf("\n");
    for (std::size_t i = 0; i < results[0].series.size(); ++i) {
      std::printf("%10zu", results[0].series[i].jobs_completed);
      for (const auto& r : results) {
        std::printf(" %20.*f", decimals, i < r.series.size() ? value(r.series[i]) : 0.0);
      }
      std::printf("\n");
    }
  };
  panel("(a): accumulated latency (1e6 s)", 3,
        [](const core::CheckpointRow& row) { return row.accumulated_latency_s / 1e6; });
  panel("(b): energy usage (kWh)", 2,
        [](const core::CheckpointRow& row) { return row.energy_kwh; });
}

/// Run a scenario batch on env_threads() workers and report how the sweep
/// scaled: sum of per-scenario walls (the serial-equivalent cost) versus the
/// sweep's actual elapsed wall clock.
inline std::vector<core::ExperimentResult> run_sweep(const std::vector<core::Scenario>& scenarios) {
  const std::size_t requested = env_threads();
  const auto t0 = std::chrono::steady_clock::now();
  auto results = core::run_batch(scenarios, requested);
  // run_batch starts no more workers than the batch has cells.
  const std::size_t workers = std::min(requested, scenarios.size());
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
              scenarios.size(), workers, elapsed, serial_equiv,
              elapsed > 0.0 ? serial_equiv / elapsed : 0.0);
  return results;
}

}  // namespace hcrl::bench
