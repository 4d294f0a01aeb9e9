// Losses: value + gradient with respect to the prediction.
//
// Templated on the Scalar type of the prediction/gradient (float/double
// instantiations in loss.cpp); loss *values* are reported in double (each
// row's value is summed in Scalar, the rows in double), so f32 training
// reports comparable loss curves.
#pragma once

#include "src/nn/matrix.hpp"

namespace hcrl::nn {

// `pred` carries one sample per row; the gradient matrix feeds straight into
// Network::backward_batch. `grad_scale` (typically 1/batch) multiplies each
// gradient element last, after the element's own loss arithmetic — the
// operation order of computing one row's loss and then scaling its gradient,
// so a batched training step accumulates the same gradients as a loop over
// its rows at batch 1 (the reference losses in tests/reference_loss.hpp pin
// this). `value` is the *sum* of the per-row loss values; callers divide by
// the batch size.

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
