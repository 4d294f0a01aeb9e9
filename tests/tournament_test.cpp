// Tournament harness contracts: the leaderboard is bit-identical at every
// worker count (at f64 and f32), row order is deterministic, and a mid-grid
// scenario failure lands in its cells without killing the run.
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/runner.hpp"
#include "src/core/scenario.hpp"
#include "src/core/trace_source.hpp"
#include "src/policy/tournament.hpp"

namespace {

using namespace hcrl;

policy::TournamentOptions small_grid() {
  policy::TournamentOptions opts;
  for (const char* spec :
       {"round-robin+always-on", "best-fit+immediate-sleep", "tetris+fixed-timeout-30",
        "random-2+immediate-sleep", "first-fit-packing+rl-window"}) {
    opts.combos.push_back(policy::combo_from_string(spec));
  }
  opts.scenario_names = {"tiny/round-robin", "tiny/least-loaded"};
  opts.jobs = 150;
  opts.sla_latency_s = 300.0;
  return opts;
}

std::string leaderboard_csv(const policy::TournamentResult& result,
                            policy::LeaderboardColumns columns) {
  std::ostringstream out;
  policy::write_leaderboard_csv(out, result, columns);
  return out.str();
}

std::string cells_csv(const policy::TournamentResult& result,
                      policy::LeaderboardColumns columns) {
  std::ostringstream out;
  policy::write_cells_csv(out, result, columns);
  return out.str();
}

class ThrowingTraceSource final : public core::TraceSource {
 public:
  core::Trace produce() const override {
    throw std::runtime_error("synthetic trace outage");
  }
  std::string describe() const override { return "throwing"; }
};

// ---- serial vs parallel bit-identity ---------------------------------------

TEST(Tournament, LeaderboardBitIdenticalSerialVsParallel) {
  const policy::TournamentOptions opts = small_grid();
  const policy::TournamentResult a = policy::run_tournament(opts, 1);
  const auto columns = policy::LeaderboardColumns::kDeterministic;
  for (const std::size_t workers : {2u, 4u}) {
    SCOPED_TRACE(workers);
    const policy::TournamentResult b = policy::run_tournament(opts, workers);
    EXPECT_EQ(leaderboard_csv(a, columns), leaderboard_csv(b, columns));
    EXPECT_EQ(cells_csv(a, columns), cells_csv(b, columns));
  }

  // Sanity: the grid actually ran.
  ASSERT_EQ(a.cells.size(), 10u);
  for (const auto& cell : a.cells) EXPECT_TRUE(cell.ok) << cell.scenario << ": " << cell.error;
}

// Forced-precision parity: the same grid at explicit f64 and f32 (via
// extra_scenarios so the cell precision is pinned regardless of the
// HCRL_PRECISION environment), each bit-identical at 1 and 2 workers. The DRL
// combo makes the NN stack part of the grid, so precision is load-bearing.
TEST(Tournament, LeaderboardBitIdenticalAtBothPrecisions) {
  for (const nn::Precision precision : {nn::Precision::kF64, nn::Precision::kF32}) {
    SCOPED_TRACE(nn::to_string(precision));
    policy::TournamentOptions opts;
    opts.combos.push_back(policy::combo_from_string("best-fit+immediate-sleep"));
    opts.combos.push_back(policy::combo_from_string("drl+immediate-sleep"));
    opts.jobs = 100;
    opts.sla_latency_s = 300.0;
    core::Scenario scenario = core::ScenarioRegistry::builtin().make("tiny/round-robin", 100);
    scenario.config.precision = precision;
    scenario.config.pretrain_jobs = 25;
    opts.extra_scenarios.push_back(scenario);

    const policy::TournamentResult a = policy::run_tournament(opts, 1);
    const policy::TournamentResult b = policy::run_tournament(opts, 2);
    const auto columns = policy::LeaderboardColumns::kDeterministic;
    EXPECT_EQ(leaderboard_csv(a, columns), leaderboard_csv(b, columns));
    EXPECT_EQ(cells_csv(a, columns), cells_csv(b, columns));
    for (const auto& cell : a.cells) EXPECT_TRUE(cell.ok) << cell.error;
  }
}

// ---- deterministic row order -----------------------------------------------

TEST(Tournament, RowOrderIsDeterministicAcrossRuns) {
  const policy::TournamentOptions opts = small_grid();
  const policy::TournamentResult a = policy::run_tournament(opts, 1);
  const policy::TournamentResult b = policy::run_tournament(opts, 1);
  EXPECT_EQ(leaderboard_csv(a, policy::LeaderboardColumns::kDeterministic),
            leaderboard_csv(b, policy::LeaderboardColumns::kDeterministic));

  const std::vector<policy::LeaderboardRow> rows = policy::leaderboard(a);
  ASSERT_EQ(rows.size(), opts.combos.size());
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const auto& prev = rows[i - 1];
    const auto& cur = rows[i];
    const bool ordered =
        prev.scenarios_failed < cur.scenarios_failed ||
        (prev.scenarios_failed == cur.scenarios_failed &&
         (prev.energy_kwh < cur.energy_kwh ||
          (prev.energy_kwh == cur.energy_kwh && prev.combo < cur.combo)));
    EXPECT_TRUE(ordered) << rows[i - 1].combo << " vs " << rows[i].combo;
  }
}

TEST(Tournament, CellsCsvIsGridOrderedWithHeader) {
  const policy::TournamentOptions opts = small_grid();
  const policy::TournamentResult result = policy::run_tournament(opts, 1);
  const std::string csv = cells_csv(result, policy::LeaderboardColumns::kWithTiming);
  std::istringstream in(csv);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line.rfind("scenario,combo,allocator,power,status,error", 0), 0u);
  std::size_t rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, result.cells.size());
  // Combo-major grid order: the first two rows belong to the first combo.
  EXPECT_EQ(result.cells[0].combo.label(), opts.combos[0].label());
  EXPECT_EQ(result.cells[1].combo.label(), opts.combos[0].label());
  EXPECT_EQ(result.cells[0].scenario, "tiny/round-robin");
  EXPECT_EQ(result.cells[1].scenario, "tiny/least-loaded");
}

// ---- per-cell failure capture ----------------------------------------------

TEST(Tournament, MidGridFailureIsCapturedPerCell) {
  policy::TournamentOptions opts;
  opts.combos.push_back(policy::combo_from_string("round-robin+always-on"));
  opts.combos.push_back(policy::combo_from_string("best-fit+immediate-sleep"));
  opts.scenario_names = {"tiny/round-robin"};
  opts.jobs = 120;

  core::Scenario bad = core::ScenarioRegistry::builtin().make("tiny/round-robin", 120);
  bad.name = "outage";
  bad.trace = std::make_shared<ThrowingTraceSource>();
  opts.extra_scenarios.push_back(bad);

  const policy::TournamentResult result = policy::run_tournament(opts, 2);
  ASSERT_EQ(result.cells.size(), 4u);
  for (const auto& cell : result.cells) {
    if (cell.scenario == "outage") {
      EXPECT_FALSE(cell.ok);
      EXPECT_NE(cell.error.find("synthetic trace outage"), std::string::npos) << cell.error;
    } else {
      EXPECT_TRUE(cell.ok) << cell.error;
      EXPECT_EQ(cell.result.final_snapshot.jobs_completed, 120u);
    }
  }

  // The failure shows up in the leaderboard accounting and the cells CSV.
  const std::vector<policy::LeaderboardRow> rows = policy::leaderboard(result);
  for (const auto& row : rows) {
    EXPECT_EQ(row.scenarios_ok, 1u);
    EXPECT_EQ(row.scenarios_failed, 1u);
  }
  const std::string csv = cells_csv(result, policy::LeaderboardColumns::kDeterministic);
  EXPECT_NE(csv.find("synthetic trace outage"), std::string::npos);

  // The strict run_batch still rethrows for non-tournament callers.
  std::vector<core::Scenario> cells = {bad};
  EXPECT_THROW(core::run_batch(cells, 2), std::runtime_error);
}

// ---- combo parsing ---------------------------------------------------------

TEST(Tournament, ComboSugarParses) {
  const policy::PolicyCombo a = policy::combo_from_string("random-5+fixed-timeout-90");
  EXPECT_EQ(a.allocator, "random-k");
  EXPECT_EQ(a.allocator_opts.get_string("k"), "5");
  EXPECT_EQ(a.power, "fixed-timeout");
  EXPECT_EQ(a.power_opts.get_string("timeout_s"), "90");
  EXPECT_EQ(a.label(), "random-k(k=5)+fixed-timeout(timeout_s=90)");

  const policy::PolicyCombo b = policy::combo_from_string("tetris+rl-lstm");
  EXPECT_EQ(b.power, "rl-dpm");
  EXPECT_EQ(b.power_opts.get_string("predictor"), "lstm");

  EXPECT_THROW(policy::combo_from_string("best-fit"), std::invalid_argument);
  try {
    policy::combo_from_string("best-fti+always-on");
    FAIL() << "expected did-you-mean";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'best-fit'"), std::string::npos);
  }
  try {
    policy::combo_from_string("best-fit+always-off");
    FAIL() << "expected did-you-mean";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'always-on'"), std::string::npos);
  }
}

TEST(Tournament, DefaultGridIsWellFormed) {
  const std::vector<policy::PolicyCombo> combos = policy::default_combos();
  EXPECT_GE(combos.size(), 6u);
  const std::vector<std::string> scenarios = policy::default_scenario_names();
  EXPECT_GE(scenarios.size(), 4u);
  for (const std::string& name : scenarios) {
    EXPECT_TRUE(core::ScenarioRegistry::builtin().contains(name)) << name;
  }
}

}  // namespace
