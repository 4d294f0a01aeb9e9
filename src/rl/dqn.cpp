#include "src/rl/dqn.hpp"

#include <stdexcept>
#include <type_traits>
#include <utility>

#include "src/nn/loss.hpp"
#include "src/nn/network.hpp"
#include "src/nn/optimizer.hpp"
#include "src/nn/serialize.hpp"
#include "src/rl/smdp.hpp"

namespace hcrl::rl {

namespace detail {

/// Precision-parameterized half of DqnAgent: the networks, optimizer and
/// gradient math. The facade owns replay/counters and hands sampled
/// minibatches (double-typed Transitions) down here; states cross the
/// boundary with one value-cast per element.
template <class S>
class DqnCore {
 public:
  DqnCore(std::size_t state_dim, std::size_t n_actions, const DqnAgent::Options& opts,
          common::Rng& rng)
      : state_dim_(state_dim),
        n_actions_(n_actions),
        online_(build_net(state_dim, n_actions, opts, rng)),
        target_(build_net(state_dim, n_actions, opts, rng)) {
    online_params_ = online_.params();
    optimizer_ = std::make_unique<nn::AdamT<S>>(online_params_,
                                                nn::AdamOptions{.lr = opts.learning_rate});
    sync_target();
  }

  nn::Vec q_values(const nn::Vec& state) {
    if constexpr (std::is_same_v<S, double>) {
      return online_.predict(state);  // no conversion copies on the f64 path
    } else {
      return nn::convert_vec<double>(online_.predict(nn::convert_vec<S>(state)));
    }
  }

  /// One SGD step on `batch`; returns the mean loss.
  double train(const std::vector<const Transition*>& batch, const DqnAgent::Options& opts) {
    optimizer_->zero_grad();
    const double inv_n = 1.0 / static_cast<double>(batch.size());
    const double total_loss = opts.batched_train ? accumulate_grads_batched(batch, inv_n, opts)
                                                 : accumulate_grads_per_sample(batch, inv_n, opts);
    nn::clip_grad_norm(online_params_, opts.grad_clip);
    optimizer_->step();
    return total_loss * inv_n;
  }

  void sync_target() { nn::copy_param_values(online_.params(), target_.params()); }

  std::vector<nn::ParamBlockPtrT<S>> params() const { return online_.params(); }

 private:
  static nn::NetworkT<S> build_net(std::size_t state_dim, std::size_t n_actions,
                                   const DqnAgent::Options& opts, common::Rng& rng) {
    nn::NetworkT<S> net;
    std::size_t prev = state_dim;
    for (std::size_t dim : opts.hidden_dims) {
      net.add_dense(prev, dim, opts.activation, rng);
      prev = dim;
    }
    net.add_dense(prev, n_actions, nn::Activation::kIdentity, rng);
    return net;
  }

  /// Accumulate minibatch gradients sample by sample; returns summed loss.
  double accumulate_grads_per_sample(const std::vector<const Transition*>& batch, double inv_n,
                                     const DqnAgent::Options& opts) {
    double total_loss = 0.0;
    for (const Transition* t : batch) {
      const nn::VecT<S> next_state = nn::convert_vec<S>(t->next_state);
      nn::VecT<S> next_q = target_.predict(next_state);
      S best_next;
      if (opts.double_q) {
        best_next = next_q[nn::argmax(online_.predict(next_state))];
      } else {
        best_next = next_q[nn::argmax(next_q)];
      }
      const double target =
          smdp_target(t->reward_rate, t->tau, opts.beta, static_cast<double>(best_next));

      nn::VecT<S> pred = online_.forward(nn::convert_vec<S>(t->state));
      nn::LossResultT<S> loss = nn::masked_mse_loss(pred, t->action, static_cast<S>(target));
      total_loss += loss.value;
      nn::scale_in_place(loss.grad, static_cast<S>(inv_n));
      online_.backward(loss.grad, /*want_input_grad=*/false);
    }
    return total_loss;
  }

  /// Same math through one batched forward/backward pair per network.
  double accumulate_grads_batched(const std::vector<const Transition*>& batch, double inv_n,
                                  const DqnAgent::Options& opts) {
    const std::size_t n = batch.size();
    nn::MatrixT<S> states, next_states;
    states.resize_for_overwrite(n, state_dim_);
    next_states.resize_for_overwrite(n, state_dim_);
    std::vector<std::size_t> actions(n);
    for (std::size_t b = 0; b < n; ++b) {
      states.set_row_cast(b, batch[b]->state);
      next_states.set_row_cast(b, batch[b]->next_state);
      actions[b] = batch[b]->action;
    }

    // Bootstrap targets: one batched sweep over the target (and, for double
    // Q-learning, the online) network instead of |batch| predict() calls.
    nn::MatrixT<S> next_q_online;
    if (opts.double_q) next_q_online = online_.predict_batch(next_states);
    const nn::MatrixT<S> next_q = target_.predict_batch(std::move(next_states));
    nn::VecT<S> targets(n);
    for (std::size_t b = 0; b < n; ++b) {
      const S* row = next_q.data() + b * n_actions_;
      std::size_t best = 0;
      if (opts.double_q) {
        const S* sel = next_q_online.data() + b * n_actions_;
        for (std::size_t a = 1; a < n_actions_; ++a) {
          if (sel[a] > sel[best]) best = a;
        }
      } else {
        for (std::size_t a = 1; a < n_actions_; ++a) {
          if (row[a] > row[best]) best = a;
        }
      }
      targets[b] = static_cast<S>(smdp_target(batch[b]->reward_rate, batch[b]->tau, opts.beta,
                                              static_cast<double>(row[best])));
    }

    // One forward/backward pair for the whole minibatch; the per-sample
    // gradient accumulation folds into the GEMMs of the backward pass.
    const nn::MatrixT<S> pred = online_.forward_batch(std::move(states));
    nn::BatchLossResultT<S> loss =
        nn::masked_mse_loss_batch(pred, actions, targets, static_cast<S>(inv_n));
    online_.backward_batch(loss.grad, /*want_input_grad=*/false);
    return loss.value;
  }

  std::size_t state_dim_;
  std::size_t n_actions_;
  nn::NetworkT<S> online_;
  nn::NetworkT<S> target_;
  std::vector<nn::ParamBlockPtrT<S>> online_params_;  // gathered once, reused every step
  std::unique_ptr<nn::AdamT<S>> optimizer_;
};

template class DqnCore<float>;
template class DqnCore<double>;

}  // namespace detail

DqnAgent::DqnAgent(std::size_t state_dim, std::size_t n_actions, const Options& opts,
                   common::Rng& rng)
    : state_dim_(state_dim),
      n_actions_(n_actions),
      opts_(opts),
      replay_(opts.replay_capacity) {
  if (state_dim == 0 || n_actions == 0) {
    throw std::invalid_argument("DqnAgent: empty state or action space");
  }
  if (opts.batch_size == 0) throw std::invalid_argument("DqnAgent: batch_size must be > 0");
  // Draw the network weights from `rng` first and fork the training stream
  // afterwards — the same consumption order as before the precision split,
  // so seeded runs reproduce the old trajectories at f64 (and the f32 agent
  // consumes the identical double stream, rounding each draw).
  if (opts_.precision == nn::Precision::kF32) {
    f32_ = std::make_unique<detail::DqnCore<float>>(state_dim, n_actions, opts_, rng);
  } else {
    f64_ = std::make_unique<detail::DqnCore<double>>(state_dim, n_actions, opts_, rng);
  }
  train_rng_ = rng.fork();
}

DqnAgent::~DqnAgent() = default;
DqnAgent::DqnAgent(DqnAgent&&) noexcept = default;
DqnAgent& DqnAgent::operator=(DqnAgent&&) noexcept = default;

nn::Vec DqnAgent::q_values(const nn::Vec& state) {
  return f32_ ? f32_->q_values(state) : f64_->q_values(state);
}

std::size_t DqnAgent::act(const nn::Vec& state, common::Rng& rng) {
  const double eps = opts_.epsilon.value(action_steps_);
  ++action_steps_;
  if (rng.bernoulli(eps)) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n_actions_) - 1));
  }
  return act_greedy(state);
}

std::size_t DqnAgent::act_greedy(const nn::Vec& state) { return nn::argmax(q_values(state)); }

void DqnAgent::observe(Transition t) {
  if (t.state.size() != state_dim_ || t.next_state.size() != state_dim_) {
    throw std::invalid_argument("DqnAgent::observe: bad state dimension");
  }
  if (t.action >= n_actions_) throw std::invalid_argument("DqnAgent::observe: bad action");
  replay_.push(std::move(t));
  ++observed_;
  if (replay_.size() >= opts_.min_replay_before_training &&
      observed_ % static_cast<std::int64_t>(opts_.train_interval) == 0) {
    last_loss_ = train_step();
  }
  if (observed_ % static_cast<std::int64_t>(opts_.target_sync_interval) == 0) {
    sync_target_();
  }
}

double DqnAgent::train_step() {
  if (replay_.size() < opts_.min_replay_before_training) return -1.0;
  auto batch = replay_.sample(opts_.batch_size, train_rng_);
  ++train_steps_;
  return f32_ ? f32_->train(batch, opts_) : f64_->train(batch, opts_);
}

std::vector<nn::ParamBlockPtr> DqnAgent::trainable_params() const {
  if (!f64_) {
    throw std::logic_error("DqnAgent::trainable_params: agent is f32; use param_values()");
  }
  return f64_->params();
}

std::vector<double> DqnAgent::param_values() const {
  return f32_ ? nn::flatten_param_values(f32_->params())
              : nn::flatten_param_values(f64_->params());
}

void DqnAgent::save_params(std::ostream& out) const {
  if (f32_) {
    nn::save_params(out, f32_->params());
  } else {
    nn::save_params(out, f64_->params());
  }
}

void DqnAgent::load_params(std::istream& in) {
  if (f32_) {
    nn::load_params(in, f32_->params());
    f32_->sync_target();
  } else {
    nn::load_params(in, f64_->params());
    f64_->sync_target();
  }
}

void DqnAgent::sync_target_() {
  if (f32_) {
    f32_->sync_target();
  } else {
    f64_->sync_target();
  }
}

}  // namespace hcrl::rl
