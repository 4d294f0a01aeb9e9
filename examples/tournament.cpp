// Tournament CLI: run a {policy combo} × {scenario} grid and emit the
// leaderboard.
//
//   ./tournament                                   # default combos × scenarios
//   ./tournament --combos best-fit+immediate-sleep,tetris+rl-window
//   ./tournament --scenarios tiny/round-robin,google2011-sample
//   ./tournament --jobs 1000 --sla 120 --workers 4
//   ./tournament --out-dir artifacts/              # leaderboard.csv + cells.csv
//   ./tournament --workers 1                       # cells in order, one thread
//   ./tournament --no-timing                       # drop wall-clock columns
//   ./tournament --metrics-json m.json --chrome-trace t.json  # telemetry
//   ./tournament --list-policies | --list-scenarios
//
// Combo sugar (see src/policy/tournament.hpp): `random-<k>`,
// `fixed-timeout-<seconds>`, `rl-<predictor>`. The leaderboard is printed to
// stdout; --out-dir additionally writes leaderboard.csv and the per-cell
// cells.csv for CI artifact upload. Every column except wall_seconds /
// decisions_per_sec is bit-identical at every --workers count (the batch
// runner's determinism contract).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/config.hpp"
#include "src/core/scenario.hpp"
#include "src/nn/precision.hpp"
#include "src/policy/registry.hpp"
#include "src/policy/tournament.hpp"
#include "src/telemetry/export.hpp"

namespace {

using namespace hcrl;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options]\n"
               "  --combos a+b,c+d     policy combos (default: built-in heuristic set)\n"
               "  --scenarios n1,n2    scenario registry names (default: built-in set)\n"
               "  --jobs N             trace scale per cell (default 2000)\n"
               "  --sla SECONDS        SLA latency threshold (default 300; 0 disables)\n"
               "  --workers N          worker threads (default 0: one per hardware\n"
               "                       thread; 1 runs the cells serially)\n"
               "  --out-dir DIR        write leaderboard.csv and cells.csv into DIR\n"
               "  --no-timing          omit wall-clock/decisions-per-sec columns\n"
               "  --watchdog SECONDS   per-cell wall-clock deadline (0 disables); a cell\n"
               "                       exceeding it becomes a per-cell error outcome\n"
               "  --journal PATH       crash-safe resume journal: finished cells append\n"
               "                       here and are skipped (byte-identically) on rerun\n"
               "  --metrics-json PATH  write an hcrl-metrics-v1 snapshot (+ manifest)\n"
               "  --chrome-trace PATH  write a chrome://tracing / Perfetto trace\n"
               "  --list-policies      list registered policies and exit\n"
               "  --list-scenarios     list scenario registry names and exit\n",
               argv0);
  return 1;
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  policy::TournamentOptions opts;
  bool timing = true;
  std::size_t workers = 0;
  std::string out_dir;
  std::string metrics_path;
  std::string trace_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(usage(argv[0]));
      }
      return argv[++i];
    };
    try {
      if (arg == "--list-policies") {
        policy::print_policy_listing(std::cout);
        return 0;
      } else if (arg == "--list-scenarios") {
        for (const auto& name : core::ScenarioRegistry::builtin().names()) {
          std::printf("%s\n", name.c_str());
        }
        return 0;
      } else if (arg == "--combos") {
        for (const std::string& spec : split_csv(next())) {
          opts.combos.push_back(policy::combo_from_string(spec));
        }
      } else if (arg == "--scenarios") {
        opts.scenario_names = split_csv(next());
      } else if (arg == "--jobs") {
        opts.jobs = common::parse_count(next(), "--jobs", 1);
      } else if (arg == "--sla") {
        opts.sla_latency_s = common::parse_number(next(), "--sla");
      } else if (arg == "--watchdog") {
        opts.watchdog_s = common::parse_number(next(), "--watchdog");
      } else if (arg == "--journal") {
        opts.journal_path = next();
      } else if (arg == "--workers") {
        workers = common::parse_count(next(), "--workers");
      } else if (arg == "--out-dir") {
        out_dir = next();
      } else if (arg == "--no-timing") {
        timing = false;
      } else if (arg == "--metrics-json") {
        metrics_path = next();
      } else if (arg == "--chrome-trace") {
        trace_path = next();
      } else {
        return usage(argv[0]);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: bad argument %s: %s\n", arg.c_str(), e.what());
      return 1;
    }
  }

  const auto columns = timing ? policy::LeaderboardColumns::kWithTiming
                              : policy::LeaderboardColumns::kDeterministic;
  try {
    telemetry::CliSession telemetry_session(metrics_path, trace_path);
    const policy::TournamentResult result = policy::run_tournament(opts, workers);

    if (telemetry_session.active()) {
      telemetry::RunManifest manifest;
      manifest.tool = "tournament";
      manifest.scenario = std::to_string(result.cells.size()) + " cells (" +
                          std::to_string(result.combos.size()) + " combos x " +
                          std::to_string(result.scenarios.size()) + " scenarios)";
      manifest.precision = nn::to_string(nn::default_precision());
      double wall = 0.0;
      for (const auto& cell : result.cells) {
        if (cell.ok) wall += cell.result.wall_seconds;
      }
      manifest.wall_seconds = wall;
      manifest.extra["jobs_per_cell"] = std::to_string(opts.jobs);
      manifest.extra["runner"] = workers == 1 ? "serial" : "parallel";
      telemetry_session.finish(manifest);
    }

    std::size_t failed = 0;
    for (const auto& cell : result.cells) {
      if (!cell.ok) {
        ++failed;
        std::fprintf(stderr, "cell failed: %s | %s: %s\n", cell.scenario.c_str(),
                     cell.combo.label().c_str(), cell.error.c_str());
      }
    }

    policy::write_leaderboard_csv(std::cout, result, columns);
    if (!out_dir.empty()) {
      const std::string lb_path = out_dir + "/leaderboard.csv";
      const std::string cells_path = out_dir + "/cells.csv";
      std::ofstream lb(lb_path);
      std::ofstream cells(cells_path);
      if (!lb || !cells) {
        std::fprintf(stderr, "error: cannot write into %s\n", out_dir.c_str());
        return 1;
      }
      policy::write_leaderboard_csv(lb, result, columns);
      policy::write_cells_csv(cells, result, columns);
      std::fprintf(stderr, "wrote %s and %s\n", lb_path.c_str(), cells_path.c_str());
    }
    std::fprintf(stderr, "%zu cells (%zu failed), %zu combos, %zu scenarios\n",
                 result.cells.size(), failed, result.combos.size(), result.scenarios.size());
    return failed == result.cells.size() ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
