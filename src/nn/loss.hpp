// Losses: value + gradient with respect to the prediction.
//
// Templated on the Scalar type of the prediction/gradient (float/double
// instantiations in loss.cpp); loss *values* are always accumulated and
// reported in double, so f32 training reports comparable loss curves.
#pragma once

#include "src/nn/matrix.hpp"

namespace hcrl::nn {

template <class S>
struct LossResultT {
  double value = 0.0;
  VecT<S> grad;  // dL/dpred
};

using LossResult = LossResultT<double>;

/// Mean squared error: L = (1/n) * sum (pred - target)^2.
template <class S>
LossResultT<S> mse_loss(const VecT<S>& pred, const VecT<S>& target);

/// Huber loss with threshold delta (mean over components). Robust choice for
/// Q-value regression (used by the DQN trainer).
template <class S>
LossResultT<S> huber_loss(const VecT<S>& pred, const VecT<S>& target, S delta = S(1));

/// Huber loss on a single output component (gradient magnitude capped at
/// delta) — the robust choice for Q-regression with bootstrapped targets.
template <class S>
LossResultT<S> masked_huber_loss(const VecT<S>& pred, std::size_t index, S target,
                                 S delta = S(1));

// --- batched variants -----------------------------------------------------
//
// `pred` carries one sample per row; the gradient matrix feeds straight into
// Network::backward_batch. `grad_scale` (typically 1/batch) is folded into
// the gradient with the same operation order as the per-sample
// loss-then-scale_in_place sequence, so batched and per-sample training
// accumulate bit-identical gradients. `value` is the *sum* of the per-row
// loss values (callers divide by the batch size, as the per-sample loops do).

template <class S>
struct BatchLossResultT {
  double value = 0.0;
  MatrixT<S> grad;  // dL/dpred, (batch x n), already multiplied by grad_scale
};

using BatchLossResult = BatchLossResultT<double>;

/// Row-wise MSE (mean over components, summed over rows).
template <class S>
BatchLossResultT<S> mse_loss_batch(const MatrixT<S>& pred, const MatrixT<S>& target,
                                   S grad_scale = S(1));

/// Huber per row on component index[b] (gradient capped at delta).
template <class S>
BatchLossResultT<S> masked_huber_loss_batch(const MatrixT<S>& pred,
                                            const std::vector<std::size_t>& index,
                                            const VecT<S>& target, S delta = S(1),
                                            S grad_scale = S(1));

}  // namespace hcrl::nn
