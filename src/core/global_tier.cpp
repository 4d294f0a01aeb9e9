#include "src/core/global_tier.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "src/sim/cluster_view.hpp"

namespace hcrl::core {

namespace {

/// Argmax over the Q-row with crash-failed servers masked out. Falls back to
/// the plain argmax when the whole action space is failed (the engine then
/// bounces the placement into the retry stream). With no failed servers this
/// delegates to nn::argmax, keeping the no-fault path bit-identical.
std::size_t live_argmax(const nn::Vec& q, const sim::ClusterView& cluster) {
  if (cluster.servers_failed() == 0) return nn::argmax(q);
  std::size_t best = q.size();
  for (std::size_t i = 0; i < q.size(); ++i) {
    if (i < cluster.num_servers() && cluster.server(i).failed()) continue;
    if (best == q.size() || q[i] > q[best]) best = i;
  }
  return best == q.size() ? nn::argmax(q) : best;
}

}  // namespace

void DrlAllocatorOptions::validate() const {
  qnet.validate();
  if (beta <= 0.0) throw std::invalid_argument("DrlAllocator: beta must be > 0");
  if (w_power < 0.0 || w_vms < 0.0 || w_reliability < 0.0) {
    throw std::invalid_argument("DrlAllocator: negative reward weight");
  }
  if (batch_size == 0 || train_interval == 0 || target_sync_interval == 0) {
    throw std::invalid_argument("DrlAllocator: batch/train/sync must be > 0");
  }
}

DrlAllocator::DrlAllocator(const DrlAllocatorOptions& opts)
    : opts_(opts),
      encoder_(opts.qnet.encoder),
      replay_(opts.replay_capacity),
      rng_(opts.seed) {
  opts_.validate();
  qnet_ = std::make_unique<GroupedQNetwork>(opts_.qnet, rng_);
}

double DrlAllocator::reward_rate_since_prev(const sim::ClusterView& cluster, sim::Time now,
                                            double tau) const {
  const double d_energy = cluster.energy_joules(now) - prev_energy_;
  const double d_vms = cluster.jobs_in_system_integral(now) - prev_vms_integral_;
  const double d_reli = cluster.reliability_integral(now) - prev_reli_integral_;
  const double d_chosen_queue =
      cluster.server(prev_action_).queue_integral(now) - prev_chosen_queue_integral_;
  // Each delta is the integral of the corresponding instantaneous signal
  // over the sojourn; dividing by tau yields the average rate of Eqn. (4)
  // plus the chosen-server shaping term.
  return -(opts_.w_power * d_energy + opts_.w_vms * d_vms + opts_.w_reliability * d_reli +
           opts_.w_chosen_queue * d_chosen_queue) /
         tau;
}

sim::ServerId DrlAllocator::select_server(const sim::ClusterView& cluster, const sim::Job& job) {
  const sim::Time now = job.arrival;
  nn::Vec state = encoder_.full_state(cluster, job);

  if (learning_ && has_prev_) {
    const double tau = std::max(now - prev_time_, 1e-6);
    rl::Transition t;
    t.state = prev_state_;
    t.action = prev_action_;
    t.reward_rate = reward_rate_since_prev(cluster, now, tau);
    t.tau = tau;
    t.next_state = state;
    replay_.push(std::move(t));
    maybe_train();
  }
  if (learning_) {
    qnet_->observe_state(state, rng_);
  }

  std::size_t action;
  const double eps = learning_ ? opts_.epsilon.value(epochs_) : 0.0;
  if (learning_ && rng_.bernoulli(eps)) {
    if (guide_ != nullptr && rng_.bernoulli(opts_.guide_mix)) {
      action = guide_->select_server(cluster, job);
    } else if (const std::size_t failed = cluster.servers_failed();
               failed > 0 && failed < cluster.num_servers() &&
               qnet_->num_actions() == cluster.num_servers()) {
      // Explore uniformly over the live servers only (same rng stream; the
      // single-draw no-fault path below is untouched when nothing is failed).
      std::size_t k = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(cluster.num_servers() - failed) - 1));
      action = 0;
      for (std::size_t i = 0; i < cluster.num_servers(); ++i) {
        if (cluster.server(i).failed()) continue;
        if (k == 0) {
          action = i;
          break;
        }
        --k;
      }
    } else {
      action = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(qnet_->num_actions()) - 1));
    }
  } else {
    action = live_argmax(qnet_->q_values(state), cluster);
  }

  ++epochs_;
  has_prev_ = true;
  prev_state_ = std::move(state);
  prev_action_ = action;
  prev_time_ = now;
  prev_energy_ = cluster.energy_joules(now);
  prev_vms_integral_ = cluster.jobs_in_system_integral(now);
  prev_reli_integral_ = cluster.reliability_integral(now);
  // Note: sampled before the job is enqueued on the chosen server, which is
  // correct — the enqueue happens after select_server returns.
  prev_chosen_queue_integral_ = cluster.server(action).queue_integral(now);
  return action;
}

void DrlAllocator::maybe_train() {
  if (replay_.size() < opts_.min_replay_before_training) return;
  if (epochs_ % static_cast<std::int64_t>(opts_.train_interval) == 0) {
    auto batch = replay_.sample(opts_.batch_size, rng_);
    last_loss_ = qnet_->train_batch(batch, opts_.beta);
    ++train_steps_;
  }
  if (epochs_ % static_cast<std::int64_t>(opts_.target_sync_interval) == 0) {
    qnet_->sync_target();
  }
}

void DrlAllocator::on_simulation_end(const sim::ClusterView& cluster, sim::Time now) {
  (void)cluster;
  (void)now;
  end_episode();
}

void DrlAllocator::end_episode() {
  has_prev_ = false;
  prev_state_.clear();
}

void DrlAllocator::save_model(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("DrlAllocator::save_model: cannot open " + path);
  qnet_->save_params(out);
  if (!out) throw std::runtime_error("DrlAllocator::save_model: write failed on " + path);
}

void DrlAllocator::load_model(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("DrlAllocator::load_model: cannot open " + path);
  // Precision-agnostic: GroupedQNetwork routes the text checkpoint into
  // whichever Scalar instantiation it runs, and re-syncs the target copy.
  qnet_->load_params(in);
}

}  // namespace hcrl::core
