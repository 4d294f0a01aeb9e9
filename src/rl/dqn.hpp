// Monolithic deep Q-learning agent over a feed-forward network.
//
// This is the "conventional feed-forward neural network that directly
// outputs Q value estimates" the paper discusses (and rejects for the
// global tier) in §V-A. We keep it as (a) the ablation baseline against the
// autoencoder/weight-sharing architecture, and (b) a reusable DRL building
// block. Targets use continuous-time SMDP discounting (Eqn. 2); stability
// comes from experience replay and a periodically-synced target network.
//
// The agent is precision-parameterized: Options::precision picks the float
// or double instantiation of the NN substrate for the networks, optimizer
// state and GEMM sweeps. The boundary stays double-typed (states, Q-values,
// replay transitions) so callers are precision-agnostic; replay storage and
// minibatch sampling are shared across precisions, which is what lets the
// f32-vs-f64 parity gates compare agents transition for transition.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "src/common/rng.hpp"
#include "src/nn/layer.hpp"
#include "src/nn/precision.hpp"
#include "src/rl/replay.hpp"
#include "src/rl/schedule.hpp"

namespace hcrl::rl {

namespace detail {
template <class S>
class DqnCore;
}  // namespace detail

class DqnAgent {
 public:
  struct Options {
    std::vector<std::size_t> hidden_dims = {128};
    nn::Activation activation = nn::Activation::kElu;
    double beta = 0.5;               // continuous-time discount rate
    double learning_rate = 1e-3;
    double grad_clip = 10.0;         // the paper clips gradient norm to 10
    std::size_t replay_capacity = 50000;
    std::size_t batch_size = 32;
    std::size_t min_replay_before_training = 500;
    std::size_t train_interval = 4;       // SGD steps every N observed transitions
    std::size_t target_sync_interval = 500;
    EpsilonSchedule epsilon = EpsilonSchedule::exponential(1.0, 0.05, 10000);
    /// Double Q-learning (van Hasselt): select the bootstrap action with the
    /// online network, evaluate it with the target network. Reduces the
    /// max-operator overestimation bias of vanilla DQN.
    bool double_q = false;
    /// Scalar type of the networks/optimizer (f32 halves memory traffic and
    /// doubles SIMD width in the GEMM kernels). Defaults to the process-wide
    /// default (HCRL_PRECISION environment variable, f64 when unset).
    nn::Precision precision = nn::default_precision();
  };

  DqnAgent(std::size_t state_dim, std::size_t n_actions, const Options& opts, common::Rng& rng);
  ~DqnAgent();
  DqnAgent(DqnAgent&&) noexcept;
  DqnAgent& operator=(DqnAgent&&) noexcept;

  std::size_t state_dim() const noexcept { return state_dim_; }
  std::size_t n_actions() const noexcept { return n_actions_; }
  nn::Precision precision() const noexcept { return opts_.precision; }

  /// Q-values of every action in `state` (online network, inference).
  nn::Vec q_values(const nn::Vec& state);
  /// Epsilon-greedy action; advances the exploration counter.
  std::size_t act(const nn::Vec& state, common::Rng& rng);
  std::size_t act_greedy(const nn::Vec& state);

  /// Record a transition; trains and syncs the target net on schedule.
  void observe(Transition t);

  /// One gradient step on a sampled minibatch. Returns the batch loss, or
  /// a negative value if the replay buffer is still warming up.
  double train_step();

  const ReplayBuffer<Transition>& replay() const noexcept { return replay_; }
  /// Online-network parameter blocks. Only valid for f64 agents (the blocks
  /// are double-typed); throws std::logic_error at f32 — use param_values()
  /// or save/load for precision-agnostic access.
  std::vector<nn::ParamBlockPtr> trainable_params() const;
  /// Flattened copy of every online-network parameter as double, at any
  /// precision (parity tests, diagnostics).
  std::vector<double> param_values() const;
  /// Persist / restore the online network (text format of nn/serialize.hpp;
  /// works at either precision). Loading also syncs the target network.
  void save_params(std::ostream& out) const;
  void load_params(std::istream& in);

  std::int64_t observed_transitions() const noexcept { return observed_; }
  std::int64_t train_steps() const noexcept { return train_steps_; }
  double current_epsilon() const { return opts_.epsilon.value(action_steps_); }
  double last_loss() const noexcept { return last_loss_; }

 private:
  void sync_target_();

  std::size_t state_dim_;
  std::size_t n_actions_;
  Options opts_;
  // Exactly one core is non-null, matching opts_.precision; the facade keeps
  // the precision-independent state (replay, counters, schedules) so both
  // instantiations share one behaviour.
  std::unique_ptr<detail::DqnCore<float>> f32_;
  std::unique_ptr<detail::DqnCore<double>> f64_;
  ReplayBuffer<Transition> replay_;
  common::Rng train_rng_;
  std::int64_t observed_ = 0;
  std::int64_t train_steps_ = 0;
  std::int64_t action_steps_ = 0;
  double last_loss_ = 0.0;
};

}  // namespace hcrl::rl
