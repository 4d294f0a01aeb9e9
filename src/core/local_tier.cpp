#include "src/core/local_tier.hpp"

#include <algorithm>
#include <stdexcept>

namespace hcrl::core {

void LocalPowerManagerOptions::validate() const {
  if (num_servers == 0) throw std::invalid_argument("RlPowerManager: num_servers == 0");
  // Written so that NaN fails each check too.
  if (!(0.0 <= w && w <= 1.0)) throw std::invalid_argument("RlPowerManager: w out of [0,1]");
  if (!(power_scale_watts > 0.0)) throw std::invalid_argument("RlPowerManager: bad power scale");
  if (timeout_actions.empty()) throw std::invalid_argument("RlPowerManager: no timeout actions");
  for (double t : timeout_actions) {
    if (!(t >= 0.0)) throw std::invalid_argument("RlPowerManager: negative timeout action");
  }
  if (std::find(timeout_actions.begin(), timeout_actions.end(), 0.0) == timeout_actions.end()) {
    throw std::invalid_argument("RlPowerManager: action list must include 0 (immediate)");
  }
  if (interarrival_bins.empty()) throw std::invalid_argument("RlPowerManager: no bins");
  if (!std::is_sorted(interarrival_bins.begin(), interarrival_bins.end())) {
    throw std::invalid_argument("RlPowerManager: bins must be sorted");
  }
  agent.validate();
  lstm.validate();
}

RlPowerManager::RlPowerManager(const LocalPowerManagerOptions& opts) : opts_(opts) {
  opts_.validate();
  servers_.resize(opts_.num_servers);
  const std::size_t num_agents = opts_.shared_table ? 1 : opts_.num_servers;
  agents_.reserve(num_agents);
  for (std::size_t i = 0; i < num_agents; ++i) {
    agents_.push_back(std::make_unique<rl::TabularQAgent>(
        opts_.num_states(), opts_.timeout_actions.size(), opts_.agent));
  }
  common::Rng root(opts_.seed);
  for (std::size_t i = 0; i < opts_.num_servers; ++i) {
    LstmPredictorOptions lstm = opts_.lstm;
    lstm.seed = opts_.seed * 1000003ULL + i;  // independent per-server streams
    servers_[i].predictor = make_predictor(opts_.predictor, lstm);
    servers_[i].agent = agents_[opts_.shared_table ? 0 : i].get();
    servers_[i].rng = root.fork();
  }
}

double RlPowerManager::predicted_gap(const sim::Server& server, sim::Time now,
                                     PerServer& ps) const {
  const sim::Time last = server.last_arrival_time();
  if (last < 0.0) return opts_.interarrival_bins.back() + 1.0;  // no history: coldest bin
  const double predicted_next = last + ps.predictor->predict();
  return std::max(0.0, predicted_next - now);
}

std::size_t RlPowerManager::discretize(double predicted_gap_s) const {
  // Bins are validated sorted at construction, so the state index — the
  // number of edges <= gap — is one binary search instead of a linear scan.
  const auto& bins = opts_.interarrival_bins;
  return static_cast<std::size_t>(
      std::upper_bound(bins.begin(), bins.end(), predicted_gap_s) - bins.begin());
}

RlPowerManager::PerServer& RlPowerManager::per_server(sim::ServerId id) {
  // Hot-hook access: one pre-validating compare instead of vector::at()'s
  // per-call bounds machinery; the id space is fixed at construction.
  if (id >= servers_.size()) {
    throw std::out_of_range("RlPowerManager: server id " + std::to_string(id) +
                            " outside the configured " + std::to_string(servers_.size()) +
                            " servers");
  }
  return servers_[id];
}

void RlPowerManager::on_arrival(const sim::Server& server, const sim::Job& job, sim::Time now) {
  (void)job;
  PerServer& ps = per_server(server.id());

  if (ps.has_pending) {
    ps.has_pending = false;
    if (learning_) close_sojourn(server, now, ps);
  }

  // Server::handle_arrival invokes this hook *before* updating
  // last_arrival_time, so the previous arrival is still visible here.
  const sim::Time prev = server.last_arrival_time();
  if (prev >= 0.0) {
    ps.predictor->observe(std::max(0.0, now - prev));
  }
}

void RlPowerManager::close_sojourn(const sim::Server& server, sim::Time now, PerServer& ps) {
  const double tau = now - ps.pending_time;
  if (tau <= 0.0) return;
  const double avg_power = (server.power_integral(now) - ps.pending_power_integral) / tau;
  const double avg_queue = (server.queue_integral(now) - ps.pending_queue_integral) / tau;
  // Eqn. (5): r(t) = -w P(t) - (1-w) JQ(t), with power normalized so the
  // two terms live on comparable scales.
  const double reward_rate =
      -(opts_.w * avg_power / opts_.power_scale_watts + (1.0 - opts_.w) * avg_queue);

  // Terminal value: the follow-on cost already committed by the power mode
  // the server is in when the job arrives. A sleeping machine forces the job
  // to wait the wake transition (latency term: JQ = 1 for that long) while
  // drawing transition power (power term). An idle machine serves at once.
  double wait_s = 0.0;
  switch (server.power_state()) {
    case sim::PowerState::kSleep:
      wait_s = opts_.t_on_s;
      break;
    case sim::PowerState::kFallingAsleep:
      wait_s = opts_.t_off_s + opts_.t_on_s;  // must finish powering down first
      break;
    case sim::PowerState::kWaking:
      wait_s = 0.5 * opts_.t_on_s;  // expected residual
      break;
    case sim::PowerState::kIdle:
    case sim::PowerState::kActive:
      break;
    case sim::PowerState::kFailed:
      // Crash-failed: the arrival was bounced before reaching this server, so
      // no sojourn closes against it. Treat like sleep for the follow-on cost.
      wait_s = opts_.t_on_s;
      break;
  }
  const double wake_cost = opts_.w * wait_s * opts_.transition_watts / opts_.power_scale_watts +
                           (1.0 - opts_.w) * wait_s;
  ps.agent->update_with_value(ps.pending_state, ps.pending_action, reward_rate, tau, -wake_cost);
}

double RlPowerManager::on_idle(const sim::Server& server, sim::Time now) {
  // §VI-B case 1: discretize the predicted gap, epsilon-greedily pick a
  // timeout action, and open the SMDP sojourn.
  PerServer& ps = per_server(server.id());
  const std::size_t state = discretize(predicted_gap(server, now, ps));
  const std::size_t action =
      learning_ ? ps.agent->select_action(state, ps.rng) : ps.agent->greedy_action(state);

  ps.has_pending = true;
  ps.pending_state = state;
  ps.pending_action = action;
  ps.pending_time = now;
  ps.pending_power_integral = server.power_integral(now);
  ps.pending_queue_integral = server.queue_integral(now);
  ++ps.decisions;

  return opts_.timeout_actions[action];
}

const rl::TabularQAgent& RlPowerManager::agent(sim::ServerId server) const {
  return *servers_.at(server).agent;
}

WorkloadPredictor& RlPowerManager::predictor(sim::ServerId server) {
  return *servers_.at(server).predictor;
}

std::size_t RlPowerManager::decisions(sim::ServerId server) const {
  return servers_.at(server).decisions;
}

}  // namespace hcrl::core
