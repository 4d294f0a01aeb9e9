// Batch runner: execute a batch of Scenarios on a worker count.
//
// run_outcomes (and its rethrowing twin run_batch) is the one batch entry
// point. `workers` = 1 runs the cells in order on the calling thread, N > 1
// on a pool of N threads (never more than the batch has cells), and 0 on one
// thread per hardware thread. Contracts at every worker count:
//
//   * The check is up front: every cell's policy pair is built (with the
//     scenario name in the error message) before any cell runs, so a bad
//     cell fails the whole sweep fast. Each cell then runs with the pair
//     built for it.
//   * Cells with no trace source and equal generator options run on one
//     cached trace (share_synthetic_traces), so a figure's systems see the
//     same workload and generate it once.
//   * Results are order-stable: outcomes[i] always belongs to scenarios[i],
//     regardless of worker count or completion order.
//   * Determinism: a scenario's result depends only on the scenario (all
//     stochastic streams are seeded from its config), so every worker count
//     produces identical results — only wall_seconds, which measures this
//     process, may differ.
//
// RunObserver is the pluggable seam for checkpoint streaming: the batch
// streams every checkpoint and completed result through it, so CSV
// streaming and progress reporting are observer implementations rather
// than runner features. Observer calls are serialized (one at a time, from
// any worker thread); checkpoints of one scenario arrive in order, but
// checkpoints of different scenarios may interleave.
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

/// Run one scenario start to finish: build its policy pair (the check, as
/// Scenario::build_policies), produce the trace, run the offline
/// construction phase (DRL systems), then the measured simulation,
/// streaming checkpoints through `observer`.
ExperimentResult run_scenario(const Scenario& scenario, RunObserver* observer = nullptr);

/// Per-scenario outcome: either a result or the exception that killed the
/// cell. outcomes[i] always belongs to scenarios[i].
struct ScenarioOutcome {
  ExperimentResult result;
  std::exception_ptr error;  // null on success
  bool ok() const noexcept { return error == nullptr; }
};

/// Build every cell's policy pair, then run the cells on `workers` threads
/// (1 = serial on the calling thread, 0 = one per hardware thread). A bad
/// cell's build throws std::invalid_argument before any cell runs; a runtime
/// failure in a cell is captured into that cell's outcome instead of
/// aborting the batch. The tournament harness runs a whole policy ×
/// scenario grid through this.
std::vector<ScenarioOutcome> run_outcomes(const std::vector<Scenario>& scenarios,
                                          std::size_t workers, RunObserver* observer = nullptr);

/// run_outcomes for callers that want plain results: rethrows the first
/// failed cell (in scenario order) after the batch finishes.
std::vector<ExperimentResult> run_batch(const std::vector<Scenario>& scenarios,
                                        std::size_t workers, RunObserver* observer = nullptr);

// ---- stock observers -------------------------------------------------------

/// Streams checkpoints as CSV rows
/// (`scenario,jobs,sim_time_s,acc_latency_s,energy_kwh,avg_power_w`).
/// The header is written on construction. Relies on the batch's observer
/// serialization for thread safety.
class CsvCheckpointObserver final : public RunObserver {
 public:
  explicit CsvCheckpointObserver(std::ostream& out);
  void on_checkpoint(const Scenario& scenario, const CheckpointRow& row) override;

 private:
  std::ostream& out_;
};

}  // namespace hcrl::core
