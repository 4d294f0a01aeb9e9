// The global tier's Q-value network (Fig. 6 of the paper).
//
// For K server groups, Q-values are produced by K logical Sub-Q heads and K
// logical autoencoders, with weights shared across all heads and across all
// autoencoders. Head k consumes:
//   [ g_k (raw group state), s_j (job state), code(g_k') for all k' != k ]
// and outputs one Q-value per server in group k. Weight sharing means any
// training sample trains *the* Sub-Q head and *the* autoencoder, which is
// exactly the scalability argument of §V-A — so this class owns a single
// Sub-Q network and a single autoencoder and applies them K times.
//
// The autoencoder is trained self-supervised on observed group states
// (reconstruction loss); its codes are treated as fixed features by the
// Q-regression (stop-gradient), which keeps the representation stable while
// Q-targets move. A separately-parameterized target copy of the Sub-Q head
// provides the bootstrap targets.
//
// The network is precision-parameterized (GroupedQOptions::precision): the
// Sub-Q/autoencoder stacks, optimizer state and GEMM sweeps run at float or
// double while the public API stays double-typed, so the experiment layer is
// precision-agnostic.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/core/state.hpp"
#include "src/nn/matrix.hpp"
#include "src/nn/param.hpp"
#include "src/nn/precision.hpp"
#include "src/rl/replay.hpp"

namespace hcrl::core {

struct GroupedQOptions {
  StateEncoderOptions encoder;
  std::vector<std::size_t> autoencoder_dims = {30, 15};  // paper: 30 and 15 ELUs
  std::size_t subq_hidden = 128;                         // paper: 128 ELUs
  double learning_rate = 1e-3;
  double grad_clip = 10.0;  // paper clips gradient norms to 10
  double autoencoder_learning_rate = 1e-3;
  std::size_t autoencoder_batch = 32;
  std::size_t autoencoder_train_interval = 64;  // one AE batch per N observed states
  std::size_t autoencoder_buffer = 4096;
  /// Double Q-learning for the bootstrap target (see rl::DqnAgent::Options).
  bool double_q = false;
  /// Scalar type of the Sub-Q/autoencoder stacks (see nn/precision.hpp).
  nn::Precision precision = nn::default_precision();

  void validate() const;
};

namespace detail {
template <class S>
class GroupedQCore;
}  // namespace detail

class GroupedQNetwork {
 public:
  GroupedQNetwork(const GroupedQOptions& opts, common::Rng& rng);
  ~GroupedQNetwork();
  GroupedQNetwork(GroupedQNetwork&&) noexcept;
  GroupedQNetwork& operator=(GroupedQNetwork&&) noexcept;

  std::size_t num_actions() const noexcept { return opts_.encoder.num_servers; }
  std::size_t state_dim() const noexcept { return opts_.encoder.full_state_dim(); }
  /// Input dimension of one Sub-Q head.
  std::size_t head_input_dim() const noexcept { return head_input_dim_; }
  nn::Precision precision() const noexcept { return opts_.precision; }

  /// Q-values for all |M| actions (online parameters).
  nn::Vec q_values(const nn::Vec& full_state);
  /// Q-values using the target parameters (for bootstrap targets).
  nn::Vec q_values_target(const nn::Vec& full_state);

  /// One SGD step on a minibatch of SMDP transitions; returns mean loss.
  double train_batch(const std::vector<const rl::Transition*>& batch, double beta);

  /// Copy online Sub-Q parameters into the target copy.
  void sync_target();

  /// Feed one observed state into the autoencoder's training buffer;
  /// trains a reconstruction batch every `autoencoder_train_interval` calls.
  /// Returns the reconstruction loss when a batch ran, negative otherwise.
  double observe_state(const nn::Vec& full_state, common::Rng& rng);

  std::size_t subq_param_count() const;
  std::size_t autoencoder_param_count() const;
  /// All learned parameters (online Sub-Q + autoencoder) as double-typed
  /// blocks. Only valid for f64 networks; throws std::logic_error at f32 —
  /// use param_values() or save/load for precision-agnostic access.
  std::vector<nn::ParamBlockPtr> trainable_params() const;
  /// Flattened copy of every learned parameter as double, at any precision.
  std::vector<double> param_values() const;
  /// Persist / restore online Sub-Q + autoencoder (nn/serialize.hpp text
  /// format, precision-agnostic). Loading also syncs the target network.
  void save_params(std::ostream& out) const;
  void load_params(std::istream& in);
  double last_autoencoder_loss() const noexcept { return last_ae_loss_; }

  // -- state slicing helpers (public for tests) ------------------------------
  nn::Vec slice_group(const nn::Vec& full_state, std::size_t group) const;
  nn::Vec slice_job(const nn::Vec& full_state) const;

 private:
  GroupedQOptions opts_;
  std::size_t head_input_dim_ = 0;
  // Exactly one core is non-null, matching opts_.precision.
  std::unique_ptr<detail::GroupedQCore<float>> f32_;
  std::unique_ptr<detail::GroupedQCore<double>> f64_;
  std::vector<nn::Vec> ae_buffer_;
  std::size_t ae_seen_ = 0;
  double last_ae_loss_ = -1.0;
};

}  // namespace hcrl::core
