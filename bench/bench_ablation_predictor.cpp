// Ablation A2 (§VI-A design choice): LSTM workload predictor versus the
// linear-combination predictors of prior work (last-value, window).
// Part 1 measures next-inter-arrival prediction error on a per-server
// arrival stream recorded from a real simulation; part 2 runs the full
// hierarchical framework with each predictor and compares energy/latency.
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/core/predictor.hpp"
#include "src/sim/cluster.hpp"
#include "src/workload/generator.hpp"

namespace {
using namespace hcrl;

/// Record per-server inter-arrival gaps under the packing heuristic (the
/// local tier sees post-allocation streams, not the raw trace).
std::vector<double> record_server_gaps(const std::vector<sim::Job>& jobs,
                                       std::size_t servers, sim::ServerId watch) {
  sim::FirstFitPackingAllocator alloc;
  sim::FixedTimeoutPolicy power(60.0);
  sim::ClusterConfig cfg;
  cfg.num_servers = servers;
  sim::Cluster cluster(cfg, alloc, power);
  cluster.load_jobs(jobs);

  std::vector<double> gaps;
  double last_arrival = -1.0;
  std::size_t seen = 0;
  while (cluster.step()) {
    const auto& s = cluster.server(watch);
    if (s.total_arrivals() > seen) {
      seen = s.total_arrivals();
      if (last_arrival >= 0.0) gaps.push_back(s.last_arrival_time() - last_arrival);
      last_arrival = s.last_arrival_time();
    }
  }
  return gaps;
}

double eval_predictor(core::WorkloadPredictor& p, const std::vector<double>& gaps) {
  // Feed the first 60%; score absolute log-error on the rest (log because
  // gaps span 4 orders of magnitude).
  const std::size_t split = gaps.size() * 6 / 10;
  for (std::size_t i = 0; i < split; ++i) p.observe(gaps[i]);
  double err = 0.0;
  for (std::size_t i = split; i < gaps.size(); ++i) {
    const double pred = p.predict();
    err += std::abs(std::log1p(pred) - std::log1p(gaps[i]));
    p.observe(gaps[i]);
  }
  return err / static_cast<double>(gaps.size() - split);
}

}  // namespace

int main() {
  const std::size_t jobs = hcrl::bench::env_jobs(20000);
  const auto cfg = hcrl::core::paper_experiment_config(30, jobs);

  workload::GoogleTraceGenerator gen(cfg.trace);
  const auto trace = gen.generate();

  std::printf("=== Ablation A2: LSTM vs linear workload predictors ===\n\n");
  std::printf("Part 1: next inter-arrival prediction, per-server stream (M=30)\n");
  const auto gaps = record_server_gaps(trace, 30, /*watch=*/0);
  std::printf("  stream: %zu gaps on server 0\n", gaps.size());
  std::printf("  %-16s %22s\n", "predictor", "mean |log error|");
  core::LstmPredictorOptions lstm;  // the local tier's predictor settings
  lstm.precision = cfg.precision;
  for (const char* kind : {"lstm", "last-value", "window"}) {
    auto p = core::make_predictor(kind, lstm);
    std::printf("  %-16s %22.4f\n", kind, eval_predictor(*p, gaps));
  }

  std::printf("\nPart 2: full hierarchical framework with each predictor\n");
  hcrl::bench::print_result_header();
  for (const char* kind : {"lstm", "last-value", "window"}) {
    core::Scenario scenario;
    scenario.name = std::string("hierarchical/") + kind;
    scenario.config = cfg;
    scenario.config.power_opts.set("predictor", kind);
    hcrl::bench::print_result_row(scenario.name, core::run_scenario(scenario));
  }
  std::printf("\n(paper's argument: linear predictors are ruined by a single long "
              "inter-arrival; the LSTM captures long-term dependencies)\n");
  return 0;
}
