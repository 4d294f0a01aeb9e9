// Reproduces Table I: accumulated energy, accumulated latency and average
// power at 95,000 jobs for M = 30 and M = 40, under round-robin, DRL-only
// and the hierarchical framework.
//
// Every "table1/*" cell of the builtin registry (the three systems at each
// of M = 30 and M = 40, plus table1/m30/hierarchical-faulty) runs as one
// batch, and all seven share one cached trace. Rows are looked up by
// scenario name, never by position in the batch, and the fault-injected
// cell prints in its own table.
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"

namespace {

struct PaperRow {
  const char* system;
  double energy_kwh;
  double latency_1e6s;
  double power_w;
};

// Paper values (Table I) for reference printing.
constexpr PaperRow kPaperM30[] = {
    {"round-robin", 441.47, 85.20, 2627.79},
    {"drl-only", 242.25, 109.73, 1441.96},
    {"hierarchical", 203.21, 92.53, 1209.58},
};
constexpr PaperRow kPaperM40[] = {
    {"round-robin", 561.13, 85.20, 3340.06},
    {"drl-only", 273.41, 108.76, 1627.44},
    {"hierarchical", 224.51, 94.26, 1336.37},
};

using ResultsByName = std::map<std::string, const hcrl::core::ExperimentResult*>;

const hcrl::core::ExperimentResult& result_named(const ResultsByName& by_name,
                                                 const std::string& name) {
  const auto it = by_name.find(name);
  if (it == by_name.end()) throw std::runtime_error("bench_table1: no result for " + name);
  return *it->second;
}

void report_for_machines(std::size_t machines, std::size_t jobs, const PaperRow* paper,
                         const ResultsByName& by_name) {
  // paper[] lists round-robin, drl-only, hierarchical: the registry's names.
  const std::string prefix = "table1/m" + std::to_string(machines) + "/";
  const auto& rr = result_named(by_name, prefix + paper[0].system);
  const auto& drl = result_named(by_name, prefix + paper[1].system);
  const auto& hier = result_named(by_name, prefix + paper[2].system);

  std::printf("\n=== Table I, M = %zu, %zu jobs ===\n", machines, jobs);
  std::printf("--- paper reports (at 95,000 jobs on the real Google trace) ---\n");
  for (int i = 0; i < 3; ++i) {
    std::printf("%-30s %12.2f %16.2f %12.2f\n", paper[i].system, paper[i].energy_kwh,
                paper[i].latency_1e6s, paper[i].power_w);
  }
  std::printf("--- this reproduction (synthetic Google-like trace) ---\n");
  hcrl::bench::print_result_header("system");
  hcrl::bench::print_result_row(paper[0].system, rr);
  hcrl::bench::print_result_row(paper[1].system, drl);
  hcrl::bench::print_result_row(paper[2].system, hier);

  const double rr_e = rr.final_snapshot.energy_joules;
  const double drl_e = drl.final_snapshot.energy_joules;
  const double hier_e = hier.final_snapshot.energy_joules;
  std::printf("energy saving vs round-robin: drl-only %.1f%%, hierarchical %.1f%% "
              "(paper: %.1f%%, %.1f%%)\n",
              100.0 * (1.0 - drl_e / rr_e), 100.0 * (1.0 - hier_e / rr_e),
              100.0 * (1.0 - paper[1].energy_kwh / paper[0].energy_kwh),
              100.0 * (1.0 - paper[2].energy_kwh / paper[0].energy_kwh));
  std::printf("hierarchical vs drl-only: energy %.1f%% lower, latency %.1f%% lower "
              "(paper: 16.1%%, 16.7%%)\n",
              100.0 * (1.0 - hier_e / drl_e),
              100.0 * (1.0 - hier.final_snapshot.accumulated_latency_s /
                                 drl.final_snapshot.accumulated_latency_s));
}

// The fault-injected twin of the M = 30 hierarchical cell, next to its
// fault-free run on the same trace. The paper has no faulty column.
void report_faulty(std::size_t jobs, const ResultsByName& by_name) {
  std::printf("\n=== M = 30 hierarchical under injected faults, %zu jobs ===\n", jobs);
  hcrl::bench::print_result_header();
  for (const char* name : {"table1/m30/hierarchical", "table1/m30/hierarchical-faulty"}) {
    hcrl::bench::print_result_row(name, result_named(by_name, name));
  }
  const auto& f = result_named(by_name, "table1/m30/hierarchical-faulty").final_snapshot.faults;
  std::printf("faults: %zu crashes, %zu evictions, %zu retries, %zu jobs lost\n", f.crashes,
              f.evictions, f.retries, f.jobs_lost);
}

}  // namespace

// Real-trace cells: the bundled TraceCatalog fixtures plus their
// calibrated-synthetic twins, run through the same sweep machinery. The
// paper evaluates on a real Google trace segment; these cells are this
// reproduction's equivalent at fixture scale. Skipped (with a notice) when
// the data/traces fixtures cannot be found.
void report_real_trace_cells() {
  std::vector<hcrl::core::Scenario> scenarios;
  const auto& registry = hcrl::core::ScenarioRegistry::builtin();
  try {
    for (const char* name : {"google2011-sample", "google2011-calibrated",
                             "alibaba2018-sample", "alibaba2018-calibrated"}) {
      scenarios.push_back(registry.make(name, 0));
      scenarios.back().config.checkpoint_every_jobs = 0;
    }
  } catch (const std::exception& e) {
    std::printf("\n=== real-trace cells skipped: %s ===\n", e.what());
    return;
  }
  const auto results = hcrl::bench::run_sweep(scenarios);
  std::printf("\n=== real-trace cells (bundled fixture slices, 6 servers) ===\n");
  hcrl::bench::print_result_header();
  for (std::size_t i = 0; i < results.size(); ++i) {
    hcrl::bench::print_result_row(scenarios[i].name, results[i]);
  }
}

int main() {
  const std::size_t jobs = hcrl::bench::env_jobs(95000);

  const auto scenarios = hcrl::core::ScenarioRegistry::builtin().make_group("table1/", jobs);
  const auto results = hcrl::bench::run_sweep(scenarios);
  ResultsByName by_name;
  for (std::size_t i = 0; i < scenarios.size(); ++i) by_name[scenarios[i].name] = &results[i];

  report_for_machines(30, jobs, kPaperM30, by_name);
  report_for_machines(40, jobs, kPaperM40, by_name);
  report_faulty(jobs, by_name);

  report_real_trace_cells();
  return 0;
}
