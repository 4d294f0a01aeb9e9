#include "src/rl/tabular_q.hpp"

#include <stdexcept>

#include "src/rl/smdp.hpp"

namespace hcrl::rl {

TabularQAgent::TabularQAgent(std::size_t n_states, std::size_t n_actions, const Options& opts)
    : n_states_(n_states),
      n_actions_(n_actions),
      opts_(opts),
      q_(n_states * n_actions, 0.0),
      visits_(n_states * n_actions, 0) {
  if (n_states == 0 || n_actions == 0) {
    throw std::invalid_argument("TabularQAgent: empty state or action space");
  }
  opts.validate();
}

void TabularQAgent::Options::validate() const {
  // Written so that NaN fails each check too: a NaN rate or discount turns
  // every Q-value NaN, and the greedy pick then silently sticks to action 0.
  if (!(0.0 < learning_rate && learning_rate <= 1.0)) {
    throw std::invalid_argument("TabularQAgent: learning_rate must be in (0,1]");
  }
  if (!(beta > 0.0)) throw std::invalid_argument("TabularQAgent: beta must be > 0");
}

std::size_t TabularQAgent::index(std::size_t state, std::size_t action) const {
  if (state >= n_states_ || action >= n_actions_) {
    throw std::out_of_range("TabularQAgent: state/action out of range");
  }
  return state * n_actions_ + action;
}

std::size_t TabularQAgent::select_action(std::size_t state, common::Rng& rng) {
  const double eps = opts_.epsilon.value(step_);
  ++step_;
  if (rng.bernoulli(eps)) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n_actions_) - 1));
  }
  return greedy_action(state);
}

std::size_t TabularQAgent::greedy_action(std::size_t state) const {
  std::size_t best = 0;
  double best_q = q_[index(state, 0)];
  for (std::size_t a = 1; a < n_actions_; ++a) {
    const double v = q_[index(state, a)];
    if (v > best_q) {
      best_q = v;
      best = a;
    }
  }
  return best;
}

void TabularQAgent::update(std::size_t state, std::size_t action, double reward_rate, double tau,
                           std::size_t next_state) {
  update_with_value(state, action, reward_rate, tau, max_q(next_state));
}

void TabularQAgent::update_with_value(std::size_t state, std::size_t action, double reward_rate,
                                      double tau, double next_value) {
  const double target = smdp_target(reward_rate, tau, opts_.beta, next_value);
  double& qv = q_[index(state, action)];
  qv += opts_.learning_rate * (target - qv);
  ++visits_[index(state, action)];
}

double TabularQAgent::q(std::size_t state, std::size_t action) const {
  return q_[index(state, action)];
}

double TabularQAgent::max_q(std::size_t state) const {
  double best = q_[index(state, 0)];
  for (std::size_t a = 1; a < n_actions_; ++a) best = std::max(best, q_[index(state, a)]);
  return best;
}

std::size_t TabularQAgent::visits(std::size_t state, std::size_t action) const {
  return visits_[index(state, action)];
}

}  // namespace hcrl::rl
