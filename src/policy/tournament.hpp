// Tournament harness: {policy combos} × {scenario set} → leaderboard.
//
// A tournament expands every entered PolicyCombo against every scenario into
// a grid of Scenario cells (each cell = one scenario recipe with the combo's
// allocator/power overrides applied), runs the grid as one
// core::run_outcomes batch — so one failing cell is captured per-cell
// instead of killing the run — and aggregates per-combo leaderboard rows.
//
// Determinism contract (pinned by tests): cell results depend only on the
// cell's scenario, so every worker count produces bit-identical
// leaderboards at any precision — except the timing columns (wall-clock,
// decisions/sec), which measure this process. write_*_csv therefore take a
// LeaderboardColumns switch; CI artifacts use kWithTiming, the parity tests
// use kDeterministic.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/common/config.hpp"
#include "src/core/scenario.hpp"

namespace hcrl::policy {

/// One allocator+power pairing entered in the tournament.
struct PolicyCombo {
  std::string allocator;
  common::Config allocator_opts;
  std::string power;
  common::Config power_opts;

  /// Stable display/CSV key: `alloc(k=v;...)+power(k=v;...)`, options in
  /// sorted key order, omitted when empty.
  std::string label() const;
};

/// Parse `<allocator>+<power>` into a combo. Each side is a registry name,
/// with sugar for the common parameterizations: `random-<k>` → random-k with
/// that k, `fixed-timeout-<seconds>` → fixed-timeout with that timeout, and
/// `rl-<predictor>` (e.g. rl-window, rl-lstm) → rl-dpm with that predictor.
/// Unknown names throw std::invalid_argument with did-you-mean suggestions.
PolicyCombo combo_from_string(const std::string& text);

/// The default entry list: every cheap heuristic pairing plus one RL local
/// tier (first-fit-packing + rl-dpm/window). DRL combos are entered
/// explicitly by name (they pretrain, so they dominate wall-clock).
std::vector<PolicyCombo> default_combos();

/// Default scenario set: one synthetic tiny cluster, both real-trace catalog
/// samples, and one calibrated synthetic twin.
std::vector<std::string> default_scenario_names();

struct TournamentOptions {
  /// Combos to enter; empty uses default_combos().
  std::vector<PolicyCombo> combos;
  /// core::ScenarioRegistry::builtin() names; empty uses
  /// default_scenario_names().
  std::vector<std::string> scenario_names;
  /// Extra scenarios used as-is (after the named ones) — the seam for custom
  /// TraceSources in tests and embedders.
  std::vector<core::Scenario> extra_scenarios;
  /// Trace scale passed to the scenario factories (ignored by fixed-size
  /// catalog scenarios).
  std::size_t jobs = 2000;
  /// SLA threshold applied to every cell (seconds; 0 disables the count).
  double sla_latency_s = 300.0;
  /// Per-cell wall-clock watchdog applied to every cell (seconds; 0
  /// disables): a cell exceeding it becomes a per-cell error outcome while
  /// the rest of the grid completes. See ExperimentConfig::watchdog_s.
  double watchdog_s = 0.0;
  /// Crash-safe resume journal (empty disables). Every successfully finished
  /// cell appends one fsync-free flushed CSV record to this file; rerunning
  /// the same grid with the same path skips journaled cells and reproduces
  /// their results (including wall_seconds) byte-identically from the
  /// round-trip-exact record instead of recomputing. Failed cells are never
  /// journaled, so they re-run on resume. A truncated trailing record (the
  /// run was killed mid-write) is ignored.
  std::string journal_path;
};

/// One cell of the grid. Exactly one of {ok, error} is meaningful.
struct TournamentCell {
  std::string scenario;  // scenario name (registry name or extra scenario's)
  PolicyCombo combo;
  bool ok = false;
  std::string error;  // exception message when !ok
  core::ExperimentResult result;
  /// jobs_completed / wall_seconds (decision epochs per second; timing —
  /// varies run to run).
  double decisions_per_sec = 0.0;
};

struct TournamentResult {
  std::vector<std::string> scenarios;  // resolved scenario names, grid order
  std::vector<PolicyCombo> combos;     // entered combos, grid order
  /// Combo-major grid: cells[c * scenarios.size() + s].
  std::vector<TournamentCell> cells;
};

/// Expand the grid and run it as one batch on `workers` threads (1 =
/// serial, 0 = one per hardware thread; core::run_outcomes). Scenario
/// recipes are built once per name, and the batch shares trace
/// materialization across combos. Invalid combos/scenarios throw up front
/// (did-you-mean); runtime failures land in the affected cells.
TournamentResult run_tournament(const TournamentOptions& opts, std::size_t workers);

/// One leaderboard row: a combo aggregated over its scenario cells.
struct LeaderboardRow {
  std::string combo;  // PolicyCombo::label()
  std::string allocator;
  std::string power;
  std::size_t scenarios_ok = 0;
  std::size_t scenarios_failed = 0;
  double energy_kwh = 0.0;       // sum over ok cells
  double latency_p95_s = 0.0;    // max over ok cells
  double latency_p99_s = 0.0;    // max over ok cells
  std::size_t sla_violations = 0;
  std::size_t jobs_completed = 0;
  // Lost-work accounting under fault injection (sums over ok cells; all
  // zero for fault-free scenario sets).
  std::size_t crashes = 0;
  std::size_t evictions = 0;
  std::size_t retries = 0;
  std::size_t jobs_lost = 0;
  double lost_cpu_seconds = 0.0;
  double mttr_s = 0.0;  // combo-wide downtime / recoveries
  double wall_seconds = 0.0;        // timing
  double decisions_per_sec = 0.0;   // timing
};

/// Deterministic ranking: complete combos first (fewest failed cells), then
/// ascending total energy, then label.
std::vector<LeaderboardRow> leaderboard(const TournamentResult& result);

enum class LeaderboardColumns {
  kDeterministic,  // engine-independent columns only (parity tests)
  kWithTiming,     // + wall_seconds / decisions_per_sec (CI artifacts)
};

/// Leaderboard CSV (one ranked row per combo; round-trip-exact doubles).
void write_leaderboard_csv(std::ostream& out, const TournamentResult& result,
                           LeaderboardColumns columns = LeaderboardColumns::kWithTiming);

/// Per-cell results CSV in grid order (failed cells keep their error message
/// and empty metric fields).
void write_cells_csv(std::ostream& out, const TournamentResult& result,
                     LeaderboardColumns columns = LeaderboardColumns::kWithTiming);

}  // namespace hcrl::policy
