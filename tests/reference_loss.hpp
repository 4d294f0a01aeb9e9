// Per-sample reference losses: one prediction vector at a time, written as
// plainly as the math. They are the oracles for the batched losses of
// src/nn/loss.hpp (loss_test) and for the per-sample DQN and autoencoder
// reference loops of batch_parity_test. Header-only test code; the library
// ships only the batched forms.
#pragma once

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "src/nn/matrix.hpp"

namespace hcrl::nn::reference {

template <class S>
struct LossResultT {
  double value = 0.0;
  VecT<S> grad;  // dL/dpred
};

using LossResult = LossResultT<double>;

/// Mean squared error: L = (1/n) * sum (pred - target)^2.
template <class S>
LossResultT<S> mse_loss(const VecT<S>& pred, const VecT<S>& target) {
  assert(pred.size() == target.size());
  if (pred.empty()) throw std::invalid_argument("mse_loss: empty");
  LossResultT<S> out;
  out.grad.resize(pred.size());
  const S inv_n = S(1) / static_cast<S>(pred.size());
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const S d = pred[i] - target[i];
    out.value += static_cast<double>(d * d * inv_n);
    out.grad[i] = S(2) * d * inv_n;
  }
  return out;
}

/// Huber loss on a single output component (gradient magnitude capped at
/// delta) — the robust choice for Q-regression with bootstrapped targets.
template <class S>
LossResultT<S> masked_huber_loss(const VecT<S>& pred, std::size_t index, S target,
                                 S delta = S(1)) {
  if (index >= pred.size()) throw std::invalid_argument("masked_huber_loss: index out of range");
  if (delta <= S(0)) throw std::invalid_argument("masked_huber_loss: delta must be > 0");
  LossResultT<S> out;
  out.grad.assign(pred.size(), S(0));
  const S d = pred[index] - target;
  if (std::abs(d) <= delta) {
    out.value = static_cast<double>(S(0.5) * d * d);
    out.grad[index] = d;
  } else {
    out.value = static_cast<double>(delta * (std::abs(d) - S(0.5) * delta));
    out.grad[index] = d > S(0) ? delta : -delta;
  }
  return out;
}

/// x *= s, element by element: the gradient scaling a per-sample training
/// loop applies after each sample's loss.
template <class S>
void scale_in_place(VecT<S>& x, S s) {
  for (auto& v : x) v *= s;
}

}  // namespace hcrl::nn::reference
