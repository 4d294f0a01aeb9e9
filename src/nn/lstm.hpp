// LSTM layer with truncated back-propagation through time (BPTT).
//
// Standard (Hochreiter & Schmidhuber) cell with gates packed [i, f, g, o]:
//   z   = Wx x_t + Wh h_{t-1} + b
//   i,f,o = sigmoid(z_i), sigmoid(z_f), sigmoid(z_o);  g = tanh(z_g)
//   c_t = f * c_{t-1} + i * g
//   h_t = o * tanh(c_t)
// The paper's workload predictor uses one such layer with 30 hidden units
// over a 35-step look-back window of job inter-arrival times (§VI-A).
//
// The cell is batched: hidden and cell state are (batch x H) matrices, and
// each timestep stacks the four gate pre-activations for the whole batch
// into one (batch x 4H) GEMM per operand. The forward pass multiplies by
// transposed copies of Wx / Wh, taken at reset_batch, so the GEMM walks each
// gate row's k-sum in vector lanes across the 4H gates even at batch 1.
// Parameters must therefore stay fixed from reset_batch until the
// sequence's backward has run; update them after, then reset_batch again.
// After the first sequence of a given length, a forward + backward pass
// allocates nothing: step caches, gate scratch and BPTT buffers are reused
// (BPTT's step stacks once per thread, the rest per cell). One sequence is
// a batch of one. Templated on the Scalar type (float/double instantiations
// in lstm.cpp); `Lstm` aliases the double instantiation.
#pragma once

#include <vector>

#include "src/nn/param.hpp"

namespace hcrl::nn {

template <class S>
class LstmT {
 public:
  explicit LstmT(LstmParamsPtrT<S> params);

  std::size_t hidden_dim() const noexcept { return params_->hidden_dim(); }
  std::size_t in_dim() const noexcept { return params_->in_dim(); }
  const LstmParamsPtrT<S>& params() const noexcept { return params_; }

  /// Clear hidden/cell state and all cached steps (batch = 1).
  void reset();
  /// Clear state and caches, sized for `batch` parallel sequences, and take
  /// the forward pass's transposed copies of the current Wx / Wh.
  void reset_batch(std::size_t batch);

  /// One forward step for `batch` sequences at once: X is (batch x in_dim),
  /// the returned hidden state is (batch x H). With keep_cache, caches the
  /// step for backward_batch; inference passes false and skips the copies.
  const MatrixT<S>& step_batch(const MatrixT<S>& X, bool keep_cache = true);

  /// BPTT over all cached steps. `dH` holds dL/dh_t (batch x H) for each
  /// cached step (zero matrices for steps without direct loss). Clears the
  /// cache and returns dL/dX for every step, stacked newest first: rows
  /// [s * batch, (s + 1) * batch) hold step T-1-s. The matrix is a buffer
  /// the cell reuses, valid until the next backward.
  ///
  /// Each parameter gradient is one GEMM over the steps stacked newest
  /// first: their terms are summed from 0 in step order T-1..0, and the sum
  /// is added to the gradient buffer. At batch 1, from zero_grad's +0, and
  /// up to the GEMM's k-panel depth (192 steps at f64, 256 at f32), that is
  /// bit-identical to adding the steps one at a time; at batch > 1 each
  /// step's batch rows join the same running sum instead of being summed
  /// on their own first.
  const MatrixT<S>& backward_batch(const std::vector<MatrixT<S>>& dH);

  const MatrixT<S>& hidden_batch() const noexcept { return h_; }

 private:
  struct StepCache {
    MatrixT<S> X, Hprev, Cprev;
    MatrixT<S> I, F, G, O;   // gate activations (batch x H each)
    MatrixT<S> C, TanhC;     // new cell state and tanh(c)
  };

  /// Reusable StepCache (buffers intact) from the free list, or a fresh one.
  StepCache take_spare();
  /// Recycle consumed caches so the next sequence reuses their buffers.
  void recycle_cache();

  LstmParamsPtrT<S> params_;
  std::size_t batch_ = 1;
  MatrixT<S> h_, c_;  // (batch x H)
  MatrixT<S> WxT_, WhT_;  // Wx^T (in x 4H), Wh^T (H x 4H) as of reset_batch
  std::vector<StepCache> cache_;
  // Hot-path buffer reuse: the per-step gate pre-activation matrix, a free
  // list of spent StepCaches and the BPTT buffers (every element is
  // overwritten before it is read, so reusing buffers cannot change any
  // value).
  MatrixT<S> z_scratch_;
  std::vector<StepCache> spare_;
  MatrixT<S> dh_next_, dc_next_, dz_, dx_;  // dL/dh_t, dL/dc_t from step t+1; dL/dZ_t, dL/dX_t
  MatrixT<S> dxs_;                           // dL/dX of every step, newest first
};

using Lstm = LstmT<double>;

extern template class LstmT<float>;
extern template class LstmT<double>;

}  // namespace hcrl::nn
