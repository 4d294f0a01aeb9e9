// Ablation A1 (§V-A design choice): the paper argues for an autoencoder +
// weight-sharing Q-network over a monolithic feed-forward Q-network. This
// bench trains both architectures as the global tier on the same trace and
// reports parameter counts, achieved energy/latency, and training losses.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "src/rl/dqn.hpp"
#include "src/sim/cluster.hpp"
#include "src/workload/generator.hpp"

namespace {

using namespace hcrl;

/// Global tier built on the monolithic rl::DqnAgent (the §V-A strawman).
class MonolithicDrlAllocator final : public sim::AllocationPolicy {
 public:
  MonolithicDrlAllocator(const core::StateEncoderOptions& enc, std::uint64_t seed)
      : encoder_(enc), rng_(seed) {
    rl::DqnAgent::Options o;
    o.hidden_dims = {128};
    o.beta = 0.05;
    o.epsilon = rl::EpsilonSchedule::exponential(0.8, 0.02, 2500);
    o.min_replay_before_training = 512;
    agent_ = std::make_unique<rl::DqnAgent>(enc.full_state_dim(), enc.num_servers, o, rng_);
  }

  sim::ServerId select_server(const sim::ClusterView& cluster, const sim::Job& job) override {
    const sim::Time now = job.arrival;
    nn::Vec state = encoder_.full_state(cluster, job);
    if (has_prev_) {
      const double tau = std::max(now - prev_time_, 1e-6);
      const double d_energy = cluster.energy_joules(now) - prev_energy_;
      const double d_vms = cluster.jobs_in_system_integral(now) - prev_vms_;
      rl::Transition t;
      t.state = prev_state_;
      t.action = prev_action_;
      t.reward_rate = -(d_energy / (145.0 * 30.0) + d_vms / 100.0) / tau;
      t.tau = tau;
      t.next_state = state;
      agent_->observe(std::move(t));
    }
    const std::size_t action = agent_->act(state, rng_);
    has_prev_ = true;
    prev_state_ = std::move(state);
    prev_action_ = action;
    prev_time_ = now;
    prev_energy_ = cluster.energy_joules(now);
    prev_vms_ = cluster.jobs_in_system_integral(now);
    return action;
  }

  void on_simulation_end(const sim::ClusterView&, sim::Time) override { has_prev_ = false; }
  std::string name() const override { return "monolithic-dqn"; }
  std::size_t param_count() const { return encoder_.options().full_state_dim() * 128 + 128 +
                                           128 * encoder_.options().num_servers +
                                           encoder_.options().num_servers; }

 private:
  core::StateEncoder encoder_;
  common::Rng rng_;
  std::unique_ptr<rl::DqnAgent> agent_;
  bool has_prev_ = false;
  nn::Vec prev_state_;
  std::size_t prev_action_ = 0;
  sim::Time prev_time_ = 0.0;
  double prev_energy_ = 0.0;
  double prev_vms_ = 0.0;
};

sim::MetricsSnapshot run_with(sim::AllocationPolicy& alloc, const std::vector<sim::Job>& jobs,
                              std::size_t servers) {
  sim::ImmediateSleepPolicy power;
  sim::ClusterConfig cfg;
  cfg.num_servers = servers;
  sim::Cluster cluster(cfg, alloc, power);
  cluster.load_jobs(jobs);
  cluster.run();
  return cluster.snapshot();
}

}  // namespace

int main() {
  const std::size_t jobs = hcrl::bench::env_jobs(20000);
  auto cfg = hcrl::core::paper_experiment_config(30, jobs);
  cfg.finalize();

  workload::GoogleTraceGenerator gen(cfg.trace);
  const auto trace = gen.generate();

  std::printf("=== Ablation A1: grouped+autoencoder+weight-sharing vs monolithic DQN ===\n");
  std::printf("(%zu jobs, M = 30; both trained online from scratch on the same trace)\n\n",
              jobs);

  core::DrlAllocator grouped(cfg.drl);
  grouped.set_guide(std::make_unique<sim::FirstFitPackingAllocator>());
  const auto grouped_snap = run_with(grouped, trace, 30);

  MonolithicDrlAllocator mono(cfg.drl.qnet.encoder, 7);
  const auto mono_snap = run_with(mono, trace, 30);

  std::printf("%-28s %14s %14s %14s %12s\n", "architecture", "params(Q-net)", "energy(kWh)",
              "latency(1e6s)", "power(W)");
  std::printf("%-28s %14zu %14.2f %14.3f %12.1f\n", "grouped+shared (paper)",
              grouped.network().subq_param_count() + grouped.network().autoencoder_param_count(),
              grouped_snap.energy_kwh(), grouped_snap.accumulated_latency_s / 1e6,
              grouped_snap.average_power_watts);
  std::printf("%-28s %14zu %14.2f %14.3f %12.1f\n", "monolithic DQN", mono.param_count(),
              mono_snap.energy_kwh(), mono_snap.accumulated_latency_s / 1e6,
              mono_snap.average_power_watts);
  std::printf("\n(paper's argument: weight sharing lets every sample train the one shared "
              "head and reduces parameters; K separate nets would cost ~K× the parameters "
              "and train each head on 1/K of the data)\n");
  return 0;
}
