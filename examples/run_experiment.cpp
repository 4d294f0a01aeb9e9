// Example: declarative experiment runner on the Scenario / batch API.
//
//   ./run_experiment path/to/experiment.conf
//   ./run_experiment --inline "system = drl-only" "trace.num_jobs = 5000"
//   ./run_experiment --scenario fig8/hierarchical 5000
//   ./run_experiment --trace my_trace.csv [system]
//   ./run_experiment --catalog google2011-sample [system]
//   ./run_experiment --list-scenarios
//   ./run_experiment --list-policies
//
// Telemetry (combinable with every mode above):
//   --metrics-json <path>   write an hcrl-metrics-v1 snapshot (+ sibling
//                           run-manifest JSON) after the run
//   --chrome-trace <path>   write a chrome://tracing / Perfetto trace
//
// Config keys are documented in src/core/config_binding.hpp; unknown keys
// are rejected. --scenario pulls a named scenario from the builtin registry
// at the given job scale; --trace runs a workload::trace_io CSV (e.g. the
// output of `trace_tools convert`) and --catalog a bundled real-trace
// dataset, both on the tiny 6-server cluster under the given system
// (default hierarchical). Checkpoints stream as CSV on stdout *while the
// simulation runs* (a CsvCheckpointObserver), then the final metrics print.
#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/config.hpp"
#include "src/core/config_binding.hpp"
#include "src/core/runner.hpp"
#include "src/core/scenario.hpp"
#include "src/nn/precision.hpp"
#include "src/policy/registry.hpp"
#include "src/telemetry/export.hpp"

int main(int argc, char** argv) {
  using namespace hcrl;

  // The telemetry flags are orthogonal to the mode dispatch below: strip
  // them (and their values) out of the argument list first.
  std::string metrics_path;
  std::string trace_path;
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (i > 0 && (a == "--metrics-json" || a == "--chrome-trace")) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a path argument\n", a.c_str());
        return 1;
      }
      (a == "--metrics-json" ? metrics_path : trace_path) = argv[++i];
      continue;
    }
    args.push_back(a);
  }
  const int nargs = static_cast<int>(args.size());
  auto arg = [&](int i) { return args[static_cast<std::size_t>(i)].c_str(); };

  const std::string mode = nargs >= 2 ? args[1] : "";

  if (mode == "--list-scenarios") {
    for (const auto& name : core::ScenarioRegistry::builtin().names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  if (mode == "--list-policies") {
    policy::print_policy_listing(std::cout);
    return 0;
  }

  core::Scenario scenario;
  try {
    if (mode == "--scenario") {
      if (nargs < 3) {
        std::fprintf(stderr, "usage: %s --scenario <name> [jobs]\n", arg(0));
        return 1;
      }
      const std::size_t jobs = nargs >= 4 ? common::parse_count(args[3], "jobs", 1) : 5000;
      scenario = core::ScenarioRegistry::builtin().make(args[2], jobs);
    } else if (mode == "--trace" || mode == "--catalog") {
      if (nargs < 3) {
        std::fprintf(stderr, "usage: %s %s <arg> [system]\n", arg(0), mode.c_str());
        return 1;
      }
      const std::string system = nargs >= 4 ? args[3] : "hierarchical";
      if (mode == "--catalog") {
        scenario = core::catalog_scenario(args[2], system);
        scenario.name = std::string("catalog:") + args[2];
      } else {
        scenario = core::trace_scenario(
            core::make_cached(std::make_shared<core::FileTraceSource>(args[2])), system);
        scenario.name = std::string("trace:") + args[2];
      }
    } else {
      common::Config raw;
      if (mode == "--inline") {
        std::ostringstream text;
        for (int i = 2; i < nargs; ++i) text << args[static_cast<std::size_t>(i)] << "\n";
        raw = common::Config::from_string(text.str());
      } else if (nargs >= 2) {
        raw = common::Config::from_file(args[1]);
      } else {
        std::fprintf(stderr,
                     "usage: %s <config-file> | --inline \"key = value\" ... | "
                     "--scenario <name> [jobs] | --list-scenarios | --list-policies\n"
                     "  [--metrics-json <path>] [--chrome-trace <path>]\n"
                     "running built-in demo config instead.\n\n",
                     arg(0));
        raw = common::Config::from_string(
            "system = hierarchical\n"
            "trace.num_jobs = 5000\n"
            "trace.horizon_s = 31832\n"  // keeps the paper's arrival rate
            "pretrain_jobs = 1500\n"
            "checkpoint_every_jobs = 1000\n");
      }
      scenario.config = core::experiment_config_from(raw);
      scenario.name = scenario.config.allocator + "+" + scenario.config.power;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  // Everything past argument handling runs under one catch: a bad scenario
  // (the run's policy build is its check) or a runtime failure (trace I/O,
  // simulation invariant, telemetry write) prints `error: <what>` and exits
  // 1 instead of std::terminate'ing.
  try {
    telemetry::CliSession telemetry_session(metrics_path, trace_path);

    std::optional<core::CsvCheckpointObserver> csv;
    if (scenario.materialized().checkpoint_every_jobs > 0) csv.emplace(std::cout);
    const core::ExperimentResult r =
        core::run_scenario(scenario, csv.has_value() ? &*csv : nullptr);

    if (telemetry_session.active()) {
      const core::ExperimentConfig cfg = scenario.materialized();
      telemetry::RunManifest manifest;
      manifest.tool = "run_experiment";
      manifest.scenario = scenario.name;
      manifest.precision = nn::to_string(cfg.precision);
      manifest.wall_seconds = r.wall_seconds;
      manifest.extra["allocator"] = r.allocator;
      manifest.extra["power"] = r.power;
      telemetry_session.finish(manifest);
    }

    const auto& s = r.final_snapshot;
    std::printf("\nscenario:          %s\n", scenario.name.c_str());
    std::printf("policies:          %s+%s\n", r.allocator.c_str(), r.power.c_str());
    std::printf("trace:             %s\n", r.trace_stats.to_string().c_str());
    std::printf("jobs completed:    %zu\n", s.jobs_completed);
    std::printf("energy:            %.2f kWh\n", s.energy_kwh());
    std::printf("acc. latency:      %.3fe6 s (%.1f s/job)\n", s.accumulated_latency_s / 1e6,
                s.average_latency_s());
    std::printf("average power:     %.1f W\n", s.average_power_watts);
    if (scenario.materialized().faults.enabled()) {
      const auto& f = s.faults;
      std::printf("faults:            %zu crashes, %zu evictions, %zu retries, %zu lost "
                  "(%.1f CPU-s lost, MTTR %.1f s)\n",
                  f.crashes, f.evictions, f.retries, f.jobs_lost, f.lost_cpu_seconds,
                  f.mttr_s());
    }
    std::printf("wall time:         %.1f s\n", r.wall_seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
