// Ablation A1 (§V-A design choice): the paper argues for an autoencoder +
// weight-sharing Q-network over "a conventional feed-forward neural network
// that directly outputs Q value estimates". At K = 1 the grouped network is
// that network: one head reads all M servers' state plus the job state and
// outputs M Q-values, with no autoencoder. This bench trains the global tier
// at the paper's K = 3 and at K = 1 on the same trace, both as the registry's
// `drl` allocator built from one config (same reward, exploration guide,
// ε schedule, target sync and loss), and reports parameter counts and the
// achieved energy and latency.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "src/policy/registry.hpp"
#include "src/sim/cluster.hpp"
#include "src/workload/generator.hpp"

namespace {

using namespace hcrl;

struct AblationRow {
  std::size_t params = 0;
  sim::MetricsSnapshot snap;
};

AblationRow run_drl(core::ExperimentConfig cfg, std::size_t groups,
                    const std::vector<sim::Job>& jobs) {
  cfg.num_groups = groups;
  const policy::BuiltAllocator alloc = policy::PolicyRegistry::builtin().make_allocator("drl", cfg);
  sim::ImmediateSleepPolicy power;
  sim::ClusterConfig cc;
  cc.num_servers = cfg.num_servers;
  cc.server = cfg.server;
  sim::Cluster cluster(cc, *alloc.policy, power);
  cluster.load_jobs(jobs);
  cluster.run();
  return {alloc.drl->network().subq_param_count() + alloc.drl->network().autoencoder_param_count(),
          cluster.snapshot()};
}

void print_row(const char* name, const AblationRow& row) {
  std::printf("%-28s %14zu %14.2f %14.3f %12.1f\n", name, row.params, row.snap.energy_kwh(),
              row.snap.accumulated_latency_s / 1e6, row.snap.average_power_watts);
}

}  // namespace

int main() {
  const std::size_t jobs = hcrl::bench::env_jobs(20000);
  const auto cfg = hcrl::core::paper_experiment_config(30, jobs);

  workload::GoogleTraceGenerator gen(cfg.trace);
  const auto trace = gen.generate();

  std::printf("=== Ablation A1: grouped+autoencoder+weight-sharing vs monolithic DQN ===\n");
  std::printf("(%zu jobs, M = 30; both drl from one config, trained online from scratch on the "
              "same trace)\n\n",
              jobs);

  const AblationRow grouped = run_drl(cfg, cfg.num_groups, trace);
  const AblationRow mono = run_drl(cfg, 1, trace);

  std::printf("%-28s %14s %14s %14s %12s\n", "architecture", "params(Q-net)", "energy(kWh)",
              "latency(1e6s)", "power(W)");
  print_row("grouped+shared, K = 3", grouped);
  print_row("monolithic, K = 1", mono);
  std::printf("\n(paper's argument: weight sharing lets every sample train the one shared "
              "head and reduces parameters; K separate nets would cost ~K× the parameters "
              "and train each head on 1/K of the data)\n");
  return 0;
}
