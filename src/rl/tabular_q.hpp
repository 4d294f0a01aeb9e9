// Tabular continuous-time Q-learning for SMDPs (Duff & Bradtke; Eqn. 2).
//
// This is the algorithm used by the local-tier power manager (§VI-B):
// discrete states (predicted inter-arrival category × machine mode),
// discrete actions (timeout values), event-driven updates.
#pragma once

#include <cstddef>
#include <vector>

#include "src/common/rng.hpp"
#include "src/rl/schedule.hpp"

namespace hcrl::rl {

class TabularQAgent {
 public:
  struct Options {
    double learning_rate = 0.1;   // alpha in Eqn. (2)
    double beta = 0.5;            // continuous-time discount rate
    EpsilonSchedule epsilon = EpsilonSchedule::exponential(0.3, 0.02, 300);

    /// Throws std::invalid_argument unless 0 < learning_rate <= 1 and beta > 0.
    void validate() const;
  };

  TabularQAgent(std::size_t n_states, std::size_t n_actions, const Options& opts);

  std::size_t n_states() const noexcept { return n_states_; }
  std::size_t n_actions() const noexcept { return n_actions_; }

  /// Epsilon-greedy action; advances the exploration step counter.
  std::size_t select_action(std::size_t state, common::Rng& rng);
  /// Greedy action (no exploration, no counter).
  std::size_t greedy_action(std::size_t state) const;

  /// Eqn. (2): Q(s,a) += alpha * [ (1-e^{-beta tau})/beta * reward_rate
  ///                               + e^{-beta tau} * max_a' Q(s',a') - Q(s,a) ].
  void update(std::size_t state, std::size_t action, double reward_rate, double tau,
              std::size_t next_state);

  /// Same update but with an explicit successor value instead of
  /// max_a' Q(s',a') — used when the sojourn ends in a state whose follow-on
  /// cost is known in closed form (e.g. a committed wake transition).
  void update_with_value(std::size_t state, std::size_t action, double reward_rate, double tau,
                         double next_value);

  double q(std::size_t state, std::size_t action) const;
  double max_q(std::size_t state) const;
  double current_epsilon() const { return opts_.epsilon.value(step_); }

  /// Visit counts, useful for diagnostics and tests.
  std::size_t visits(std::size_t state, std::size_t action) const;

 private:
  std::size_t index(std::size_t state, std::size_t action) const;

  std::size_t n_states_;
  std::size_t n_actions_;
  Options opts_;
  std::vector<double> q_;
  std::vector<std::size_t> visits_;
  std::int64_t step_ = 0;
};

}  // namespace hcrl::rl
