// Runner: execute a batch of Scenarios, serially or on a worker pool.
//
// Contracts shared by every Runner:
//
//   * Validation is up front: every scenario is validated (with its name in
//     the error message) before any simulation starts, so a bad cell fails
//     the whole sweep fast.
//   * Results are order-stable: results[i] always belongs to scenarios[i],
//     regardless of worker count or completion order.
//   * Determinism: a scenario's result depends only on the scenario (all
//     stochastic streams are seeded from its config), so SerialRunner and
//     ParallelRunner produce identical results — only wall_seconds, which
//     measures this process, may differ.
//
// RunObserver is the pluggable seam that replaces the old baked-in
// checkpoint accumulation: the driver streams every checkpoint and completed
// result through it, so CSV streaming and progress reporting are observer
// implementations rather than driver features. Runners serialize observer
// calls (one at a time, from any worker thread); checkpoints of one scenario
// arrive in order, but checkpoints of different scenarios may interleave.
#pragma once

#include <cstddef>
#include <exception>
#include <iosfwd>
#include <vector>

#include "src/core/scenario.hpp"

namespace hcrl::core {

class RunObserver {
 public:
  virtual ~RunObserver() = default;
  /// A metrics checkpoint of `scenario` was recorded (measured run only).
  virtual void on_checkpoint(const Scenario& scenario, const CheckpointRow& row);
  /// `scenario` finished; `result` is final.
  virtual void on_complete(const Scenario& scenario, const ExperimentResult& result);
};

/// Run one scenario start to finish: produce the trace, run the offline
/// construction phase (DRL systems), then the measured simulation, streaming
/// checkpoints through `observer`. The building block under every Runner.
ExperimentResult run_scenario(const Scenario& scenario, RunObserver* observer = nullptr);

/// Per-scenario outcome: either a result or the exception that killed the
/// cell. outcomes[i] always belongs to scenarios[i].
struct ScenarioOutcome {
  ExperimentResult result;
  std::exception_ptr error;  // null on success
  bool ok() const noexcept { return error == nullptr; }
};

class Runner {
 public:
  virtual ~Runner() = default;
  /// Validate every scenario, then run them all; a runtime failure in any
  /// cell is captured into that cell's outcome instead of aborting the batch
  /// (validation errors still throw up front). The tournament harness runs a
  /// whole policy × scenario grid through this.
  virtual std::vector<ScenarioOutcome> run_outcomes(const std::vector<Scenario>& scenarios,
                                                    RunObserver* observer = nullptr) = 0;
  /// run_outcomes with the original throwing contract: rethrows the first
  /// failed cell (in scenario order) after the batch finishes.
  std::vector<ExperimentResult> run(const std::vector<Scenario>& scenarios,
                                    RunObserver* observer = nullptr);
};

class SerialRunner final : public Runner {
 public:
  std::vector<ScenarioOutcome> run_outcomes(const std::vector<Scenario>& scenarios,
                                            RunObserver* observer = nullptr) override;
};

/// Worker pool over a shared scenario queue. `num_workers` = 0 uses the
/// hardware concurrency; the pool never exceeds the scenario count.
class ParallelRunner final : public Runner {
 public:
  explicit ParallelRunner(std::size_t num_workers = 0);

  std::vector<ScenarioOutcome> run_outcomes(const std::vector<Scenario>& scenarios,
                                            RunObserver* observer = nullptr) override;

  std::size_t num_workers() const noexcept { return num_workers_; }

 private:
  std::size_t num_workers_;
};

// ---- stock observers -------------------------------------------------------

/// Streams checkpoints as CSV rows
/// (`scenario,jobs,sim_time_s,acc_latency_s,energy_kwh,avg_power_w`).
/// The header is written on construction. Relies on the runner's observer
/// serialization for thread safety.
class CsvCheckpointObserver final : public RunObserver {
 public:
  explicit CsvCheckpointObserver(std::ostream& out);
  void on_checkpoint(const Scenario& scenario, const CheckpointRow& row) override;

 private:
  std::ostream& out_;
};

}  // namespace hcrl::core
