// Local tier: distributed RL-based dynamic power management (§VI).
//
// One sub-manager per server, operating independently (the "distributed
// manner" of the paper). Decision epochs follow §VI-B exactly:
//
//  case 1 (idle, empty queue): discretize the workload predictor's estimate
//    of time-to-next-arrival into the RL state and epsilon-greedily pick a
//    timeout from the action list (0 = immediate shutdown). This opens an
//    SMDP sojourn.
//  cases 2/3 (job arrives while idle/sleeping): no decision is needed, but
//    the sojourn closes here. The Eqn. (2) update uses the *exact* average
//    reward rate r(t) = -w·P(t)/P_peak - (1-w)·JQ(t) over the idle gap
//    (from the server's power/queue integrals), plus a terminal value that
//    charges the known follow-on cost of the chosen power mode: a job that
//    finds the server asleep must wait out the wake transition (latency
//    term) while the machine burns transition power (power term).
//
// Closing the sojourn at the arrival keeps the learning signal local to the
// timeout decision instead of diluting it across the next busy period.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/core/predictor.hpp"
#include "src/rl/tabular_q.hpp"
#include "src/sim/policies.hpp"
#include "src/sim/server.hpp"

namespace hcrl::core {

class DecisionService;

struct LocalPowerManagerOptions {
  std::size_t num_servers = 30;
  /// Reward weight w in Eqn. (5): w scales power, (1-w) scales queue length.
  /// Sweeping w traces the power/latency trade-off curve (Fig. 10).
  double w = 0.5;
  double power_scale_watts = 145.0;  // normalizes P(t) to ~[0,1]
  /// Timeout action list in seconds; must contain 0 (immediate shutdown).
  std::vector<double> timeout_actions = {0.0, 30.0, 60.0, 120.0, 300.0};
  /// Bin edges (seconds) discretizing predicted time-to-next-arrival into
  /// the n categories of §VI-A; n = edges + 1 states.
  std::vector<double> interarrival_bins = {30.0, 60.0, 120.0, 300.0, 900.0, 3600.0};
  std::string predictor = "lstm";
  LstmPredictorOptions lstm;
  /// Tabular SMDP agent settings. beta is per *second* here; idle gaps span
  /// seconds to hours, so the default horizon is a few minutes.
  rl::TabularQAgent::Options agent = {.learning_rate = 0.1, .beta = 0.005};
  std::uint64_t seed = 13;
  /// Server transition times used to estimate wake costs (the `rl-dpm`
  /// factory copies them from the simulated ServerConfig).
  double t_on_s = 30.0;
  double t_off_s = 30.0;
  double transition_watts = 145.0;
  /// Servers are homogeneous, so by default all sub-managers learn into one
  /// shared Q-table (decisions remain fully distributed). Set false for the
  /// strictly-independent per-server variant.
  bool shared_table = true;

  void validate() const;
  std::size_t num_states() const { return interarrival_bins.size() + 1; }
};

class RlPowerManager final : public sim::PowerPolicy {
 public:
  explicit RlPowerManager(const LocalPowerManagerOptions& opts);

  double on_idle(const sim::Server& server, sim::Time now) override;
  void on_arrival(const sim::Server& server, const sim::Job& job, sim::Time now) override;
  std::string name() const override { return "rl-dpm(" + opts_.predictor + ")"; }

  /// No-op stub: bench_e2e still calls it; the next benchmark change deletes it.
  void set_decision_service(DecisionService*) noexcept {}

  void set_learning(bool learning) noexcept { learning_ = learning; }
  bool learning() const noexcept { return learning_; }

  /// Map a predicted time-to-next-arrival to an RL state index.
  std::size_t discretize(double predicted_gap_s) const;

  const rl::TabularQAgent& agent(sim::ServerId server) const;
  WorkloadPredictor& predictor(sim::ServerId server);
  std::size_t decisions(sim::ServerId server) const;
  const LocalPowerManagerOptions& options() const noexcept { return opts_; }

 private:
  struct PerServer {
    std::unique_ptr<WorkloadPredictor> predictor;
    rl::TabularQAgent* agent = nullptr;  // owned via agents_ below
    common::Rng rng{0};
    bool has_pending = false;
    std::size_t pending_state = 0;
    std::size_t pending_action = 0;
    sim::Time pending_time = 0.0;
    double pending_power_integral = 0.0;
    double pending_queue_integral = 0.0;
    std::size_t decisions = 0;
  };

  /// Checked-once indexed access for the hot hooks (throws std::out_of_range
  /// on an id outside the configured server count).
  PerServer& per_server(sim::ServerId id);
  /// Predicted time from `now` until the next arrival at this server:
  /// (last arrival + predicted inter-arrival) - now, floored at zero.
  double predicted_gap(const sim::Server& server, sim::Time now, PerServer& ps) const;
  /// Apply the Eqn. (2) update for the sojourn that ends at this arrival.
  void close_sojourn(const sim::Server& server, sim::Time now, PerServer& ps);

  LocalPowerManagerOptions opts_;
  std::vector<std::unique_ptr<rl::TabularQAgent>> agents_;  // 1 if shared, M otherwise
  std::vector<PerServer> servers_;
  bool learning_ = true;
};

}  // namespace hcrl::core
