#include "src/core/qnetwork.hpp"

#include <stdexcept>

#include "src/nn/autoencoder.hpp"
#include "src/nn/loss.hpp"
#include "src/nn/network.hpp"
#include "src/nn/optimizer.hpp"
#include "src/rl/smdp.hpp"
#include "src/telemetry/profiler.hpp"
#include "src/telemetry/registry.hpp"

namespace hcrl::core {

void GroupedQOptions::validate() const {
  encoder.validate();
  if (autoencoder_dims.empty()) throw std::invalid_argument("GroupedQOptions: no AE dims");
  if (subq_hidden == 0) throw std::invalid_argument("GroupedQOptions: subq_hidden == 0");
  // Written so that NaN fails each check too.
  if (!(learning_rate > 0.0) || !(autoencoder_learning_rate > 0.0)) {
    throw std::invalid_argument("GroupedQOptions: learning rates must be > 0");
  }
  if (!(grad_clip > 0.0)) throw std::invalid_argument("GroupedQOptions: grad_clip must be > 0");
  if (autoencoder_batch == 0 || autoencoder_train_interval == 0 || autoencoder_buffer == 0) {
    throw std::invalid_argument("GroupedQOptions: autoencoder batch/interval/buffer must be > 0");
  }
}

namespace detail {

/// Precision-parameterized half of GroupedQNetwork: the autoencoder, the
/// online/target Sub-Q stacks, the optimizer and all the GEMM plumbing. One
/// q_values() decision costs the two network sweeps plus a single head
/// matrix staging — no per-head Vec assembly.
template <class S>
class GroupedQCore {
 public:
  GroupedQCore(const GroupedQOptions& opts, std::size_t head_input_dim, common::Rng& rng)
      : opts_(opts), head_input_dim_(head_input_dim) {
    // At K = 1 the one head reads no code, so there is no autoencoder.
    if (opts_.encoder.num_groups > 1) {
      nn::AutoencoderOptions ae_opts;
      ae_opts.encoder_dims = opts_.autoencoder_dims;
      ae_opts.learning_rate = opts_.autoencoder_learning_rate;
      ae_opts.grad_clip = opts_.grad_clip;
      autoencoder_ = std::make_unique<nn::AutoencoderT<S>>(opts_.encoder.group_state_dim(),
                                                           ae_opts, rng);
    }
    online_subq_ = std::make_unique<nn::NetworkT<S>>(build_subq(rng));
    target_subq_ = std::make_unique<nn::NetworkT<S>>(build_subq(rng));
    sync_target();
    optimizer_ = std::make_unique<nn::AdamT<S>>(online_subq_->params(),
                                                nn::AdamOptions{.lr = opts_.learning_rate});
  }

  nn::Vec q_values(const nn::Vec& full_state) { return q_values_with(*online_subq_, full_state); }

  nn::Vec q_values_target(const nn::Vec& full_state) {
    return q_values_with(*target_subq_, full_state);
  }

  double train_batch(const std::vector<const rl::Transition*>& batch, double beta) {
    const auto& enc = opts_.encoder;
    const std::size_t n = batch.size();
    const std::size_t K = enc.num_groups;
    optimizer_->zero_grad();

    // Bootstrap-target sweep, batched across the whole minibatch: all n*K
    // next-state group encodes in one autoencoder pass, then all n*K Sub-Q
    // head forwards in one target-network pass.
    const nn::MatrixT<S> next_codes =
        encode_groups(n, [&](std::size_t b) -> const nn::Vec& { return batch[b]->next_state; });
    nn::MatrixT<S> next_heads;
    next_heads.resize_for_overwrite(n * K, head_input_dim_);
    for (std::size_t b = 0; b < n; ++b) {
      for (std::size_t k = 0; k < K; ++k) {
        fill_head_row(next_heads, b * K + k, batch[b]->next_state, k, next_codes, b * K);
      }
    }
    const nn::MatrixT<S> next_q = target_subq_->predict_batch(std::move(next_heads));

    nn::VecT<S> targets(n);
    std::vector<std::size_t> locals(n);
    for (std::size_t b = 0; b < n; ++b) {
      // This transition's K rows are its M = K * group_size Q-values, in order.
      const S* q_next = next_q.data() + b * enc.num_servers;
      std::size_t best = 0;
      for (std::size_t a = 1; a < enc.num_servers; ++a) {
        if (q_next[a] > q_next[best]) best = a;
      }
      targets[b] = static_cast<S>(rl::smdp_target(batch[b]->reward_rate, batch[b]->tau, beta,
                                                  static_cast<double>(q_next[best])));
      locals[b] = batch[b]->action % enc.group_size();
    }

    // Online pass: only the head owning each chosen action receives gradient;
    // weight sharing means the n rows still train the one physical Sub-Q
    // network, and the per-sample gradient sum folds into the backward GEMMs.
    const nn::MatrixT<S> state_codes =
        encode_groups(n, [&](std::size_t b) -> const nn::Vec& { return batch[b]->state; });
    nn::MatrixT<S> pred_heads;
    pred_heads.resize_for_overwrite(n, head_input_dim_);
    for (std::size_t b = 0; b < n; ++b) {
      const std::size_t group = batch[b]->action / enc.group_size();
      fill_head_row(pred_heads, b, batch[b]->state, group, state_codes, b * K);
    }
    const nn::MatrixT<S> pred = online_subq_->forward_batch(std::move(pred_heads));
    const double inv_n = 1.0 / static_cast<double>(n);
    nn::BatchLossResultT<S> loss = nn::masked_huber_loss_batch(pred, locals, targets, S(1),
                                                               static_cast<S>(inv_n));
    online_subq_->backward_batch(loss.grad, /*want_input_grad=*/false);

    nn::clip_grad_norm(online_subq_->params(), opts_.grad_clip);
    optimizer_->step();
    return loss.value * inv_n;
  }

  void sync_target() { nn::copy_param_values(online_subq_->params(), target_subq_->params()); }

  double train_autoencoder(const std::vector<const nn::Vec*>& batch) {
    nn::MatrixT<S> X;
    X.resize_for_overwrite(batch.size(), opts_.encoder.group_state_dim());
    for (std::size_t b = 0; b < batch.size(); ++b) X.set_row_cast(b, *batch[b]);
    return autoencoder_->train_batch_matrix(X);
  }

  std::size_t subq_param_count() const { return online_subq_->param_count(); }
  std::size_t autoencoder_param_count() const {
    return autoencoder_ ? autoencoder_->param_count() : 0;
  }

  std::vector<nn::ParamBlockPtrT<S>> trainable_params_typed() const {
    auto out = online_subq_->params();
    if (autoencoder_) {
      auto ae = autoencoder_->params();
      out.insert(out.end(), ae.begin(), ae.end());
    }
    return out;
  }

 private:
  nn::NetworkT<S> build_subq(common::Rng& rng) const {
    // One fully-connected hidden layer of ELUs and a linear output with one
    // unit per server in the group (§VII-A).
    nn::NetworkT<S> net;
    net.add_dense(head_input_dim_, opts_.subq_hidden, nn::Activation::kElu, rng);
    net.add_dense(opts_.subq_hidden, opts_.encoder.group_size(), nn::Activation::kIdentity, rng);
    return net;
  }

  /// Codes of the K groups of `n` states through ONE autoencoder sweep: row
  /// b * K + k is group k of `state_of(b)`. Empty at K = 1, where no head
  /// reads a code.
  template <class StateOf>
  nn::MatrixT<S> encode_groups(std::size_t n, StateOf state_of) const {
    if (!autoencoder_) return {};
    const auto& enc = opts_.encoder;
    const std::size_t g = enc.group_state_dim();
    nn::MatrixT<S> groups;
    groups.resize_for_overwrite(n * enc.num_groups, g);
    S* out = groups.data();
    for (std::size_t b = 0; b < n; ++b) {
      const nn::Vec& full_state = state_of(b);
      for (std::size_t i = 0; i < enc.num_groups * g; ++i) *out++ = static_cast<S>(full_state[i]);
    }
    return autoencoder_->encode_batch(std::move(groups));
  }

  /// Row `row` of `dst` = head input of `group`: [g_k, s_j, codes of other
  /// groups]. `codes` holds one code per row; row `code_row0 + k` is group
  /// k's code. Writes in place — no per-head Vec staging.
  void fill_head_row(nn::MatrixT<S>& dst, std::size_t row, const nn::Vec& full_state,
                     std::size_t group, const nn::MatrixT<S>& codes,
                     std::size_t code_row0) const {
    const auto& enc = opts_.encoder;
    const std::size_t g = enc.group_state_dim();
    const std::size_t j = enc.job_state_dim();
    S* out = dst.data() + row * dst.cols();
    const double* gsrc = full_state.data() + group * g;
    for (std::size_t i = 0; i < g; ++i) *out++ = static_cast<S>(gsrc[i]);
    const double* jsrc = full_state.data() + (full_state.size() - j);
    for (std::size_t i = 0; i < j; ++i) *out++ = static_cast<S>(jsrc[i]);
    for (std::size_t k = 0; k < enc.num_groups; ++k) {
      if (k == group) continue;
      const S* code = codes.data() + (code_row0 + k) * codes.cols();
      for (std::size_t i = 0; i < codes.cols(); ++i) *out++ = code[i];
    }
  }

  /// One decision state through ONE autoencoder sweep (its K group rows) and
  /// ONE Sub-Q sweep (its K head rows). The staging matrices are written
  /// row-in-place straight from the state and then move-consumed by the
  /// sweeps, which recycle them as layer activations.
  nn::Vec q_values_with(nn::NetworkT<S>& subq, const nn::Vec& full_state) {
    const auto& enc = opts_.encoder;
    const std::size_t K = enc.num_groups;
    const nn::MatrixT<S> codes =
        encode_groups(1, [&](std::size_t) -> const nn::Vec& { return full_state; });
    nn::MatrixT<S> heads;
    heads.resize_for_overwrite(K, head_input_dim_);
    for (std::size_t k = 0; k < K; ++k) fill_head_row(heads, k, full_state, k, codes, 0);
    const nn::MatrixT<S> head_q = subq.predict_batch(std::move(heads));
    nn::Vec q(enc.num_servers);
    double* dst = q.data();
    for (std::size_t k = 0; k < K; ++k) {
      const S* src = head_q.data() + k * head_q.cols();
      for (std::size_t a = 0; a < enc.group_size(); ++a) *dst++ = static_cast<double>(src[a]);
    }
    return q;
  }

  GroupedQOptions opts_;
  std::size_t head_input_dim_;
  std::unique_ptr<nn::AutoencoderT<S>> autoencoder_;
  std::unique_ptr<nn::NetworkT<S>> online_subq_;
  std::unique_ptr<nn::NetworkT<S>> target_subq_;
  std::unique_ptr<nn::AdamT<S>> optimizer_;
};

template class GroupedQCore<float>;
template class GroupedQCore<double>;

}  // namespace detail

namespace {

/// Global-tier work counts, plus a span around each DQN step, so a traced
/// run's global-tier time splits into inference and training.
struct QNetMetrics {
  telemetry::MetricId q_value_calls;
  telemetry::MetricId train_batches;
  telemetry::MetricId autoencoder_batches;

  static const QNetMetrics& get() {
    static const QNetMetrics m = [] {
      auto& reg = telemetry::global_registry();
      return QNetMetrics{
          .q_value_calls = reg.counter("core.qnet.q_value_calls"),
          .train_batches = reg.counter("core.qnet.train_batches"),
          .autoencoder_batches = reg.counter("core.qnet.autoencoder_batches"),
      };
    }();
    return m;
  }
};

const telemetry::SpanDef& train_span() {
  static const telemetry::SpanDef def("core.qnet.train");
  return def;
}

void check_state_size(const nn::Vec& full_state, std::size_t dim) {
  if (full_state.size() != dim) throw std::invalid_argument("GroupedQNetwork: bad state size");
}

}  // namespace

GroupedQNetwork::GroupedQNetwork(const GroupedQOptions& opts, common::Rng& rng) : opts_(opts) {
  opts_.validate();
  const auto& enc = opts_.encoder;
  // The code dimension is the last encoder layer's width.
  head_input_dim_ = enc.group_state_dim() + enc.job_state_dim() +
                    (enc.num_groups - 1) * opts_.autoencoder_dims.back();
  if (opts_.precision == nn::Precision::kF32) {
    f32_ = std::make_unique<detail::GroupedQCore<float>>(opts_, head_input_dim_, rng);
  } else {
    f64_ = std::make_unique<detail::GroupedQCore<double>>(opts_, head_input_dim_, rng);
  }
  if (enc.num_groups > 1) ae_buffer_.reserve(opts_.autoencoder_buffer);
}

GroupedQNetwork::~GroupedQNetwork() = default;
GroupedQNetwork::GroupedQNetwork(GroupedQNetwork&&) noexcept = default;
GroupedQNetwork& GroupedQNetwork::operator=(GroupedQNetwork&&) noexcept = default;

nn::Vec GroupedQNetwork::slice_group(const nn::Vec& full_state, std::size_t group) const {
  const auto& enc = opts_.encoder;
  if (group >= enc.num_groups) throw std::out_of_range("slice_group: bad group");
  if (full_state.size() != enc.full_state_dim()) {
    throw std::invalid_argument("slice_group: bad state size");
  }
  const std::size_t g = enc.group_state_dim();
  return nn::Vec(full_state.begin() + static_cast<std::ptrdiff_t>(group * g),
                 full_state.begin() + static_cast<std::ptrdiff_t>((group + 1) * g));
}

nn::Vec GroupedQNetwork::slice_job(const nn::Vec& full_state) const {
  const auto& enc = opts_.encoder;
  if (full_state.size() != enc.full_state_dim()) {
    throw std::invalid_argument("slice_job: bad state size");
  }
  return nn::Vec(full_state.end() - static_cast<std::ptrdiff_t>(enc.job_state_dim()),
                 full_state.end());
}

nn::Vec GroupedQNetwork::q_values(const nn::Vec& full_state) {
  check_state_size(full_state, state_dim());
  if (telemetry::enabled()) telemetry::count(QNetMetrics::get().q_value_calls);
  return f32_ ? f32_->q_values(full_state) : f64_->q_values(full_state);
}

nn::Vec GroupedQNetwork::q_values_target(const nn::Vec& full_state) {
  check_state_size(full_state, state_dim());
  return f32_ ? f32_->q_values_target(full_state) : f64_->q_values_target(full_state);
}

double GroupedQNetwork::train_batch(const std::vector<const rl::Transition*>& batch,
                                    double beta) {
  if (batch.empty()) throw std::invalid_argument("GroupedQNetwork::train_batch: empty batch");
  for (const rl::Transition* t : batch) {
    check_state_size(t->state, state_dim());
    check_state_size(t->next_state, state_dim());
    if (t->action >= num_actions()) {
      throw std::invalid_argument("GroupedQNetwork::train_batch: action out of range");
    }
  }
  const telemetry::Span span(train_span());
  if (telemetry::enabled()) telemetry::count(QNetMetrics::get().train_batches);
  return f32_ ? f32_->train_batch(batch, beta) : f64_->train_batch(batch, beta);
}

void GroupedQNetwork::sync_target() {
  if (f32_) {
    f32_->sync_target();
  } else {
    f64_->sync_target();
  }
}

std::size_t GroupedQNetwork::subq_param_count() const {
  return f32_ ? f32_->subq_param_count() : f64_->subq_param_count();
}

std::size_t GroupedQNetwork::autoencoder_param_count() const {
  return f32_ ? f32_->autoencoder_param_count() : f64_->autoencoder_param_count();
}

std::vector<double> GroupedQNetwork::param_values() const {
  return f32_ ? nn::flatten_param_values(f32_->trainable_params_typed())
              : nn::flatten_param_values(f64_->trainable_params_typed());
}

double GroupedQNetwork::observe_state(const nn::Vec& full_state, common::Rng& rng) {
  const auto& enc = opts_.encoder;
  check_state_size(full_state, state_dim());
  // At K = 1 there is no autoencoder: nothing to buffer, sample or train.
  if (enc.num_groups == 1) return -1.0;
  for (std::size_t k = 0; k < enc.num_groups; ++k) {
    nn::Vec g = slice_group(full_state, k);
    if (ae_buffer_.size() < opts_.autoencoder_buffer) {
      ae_buffer_.push_back(std::move(g));
    } else {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(ae_buffer_.size()) - 1));
      ae_buffer_[idx] = std::move(g);  // reservoir-style replacement
    }
  }
  ++ae_seen_;
  if (ae_seen_ % opts_.autoencoder_train_interval != 0 ||
      ae_buffer_.size() < opts_.autoencoder_batch) {
    return -1.0;
  }
  // Sample by pointer: the rows are copied once, straight into the staging
  // matrix of the batched reconstruction pass.
  std::vector<const nn::Vec*> batch;
  batch.reserve(opts_.autoencoder_batch);
  for (std::size_t i = 0; i < opts_.autoencoder_batch; ++i) {
    const auto idx = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(ae_buffer_.size()) - 1));
    batch.push_back(&ae_buffer_[idx]);
  }
  if (telemetry::enabled()) telemetry::count(QNetMetrics::get().autoencoder_batches);
  last_ae_loss_ = f32_ ? f32_->train_autoencoder(batch) : f64_->train_autoencoder(batch);
  return last_ae_loss_;
}

}  // namespace hcrl::core
