#include "src/nn/layer.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "src/nn/fastmath.hpp"

namespace hcrl::nn {

template <class S>
DenseT<S>::DenseT(DenseParamsPtrT<S> params) : params_(std::move(params)) {
  if (!params_) throw std::invalid_argument("Dense: null params");
}

template <class S>
void DenseT<S>::forward_into(const MatrixT<S>& X, MatrixT<S>& Y) const {
  assert(X.cols() == params_->in_dim());
  // Seed every row with the bias, then accumulate X W^T on top in one GEMM
  // for the whole batch — one write pass over Y instead of a separate
  // broadcast-add pass (addition commutes, so the rounding is unchanged).
  Y.resize_for_overwrite(X.rows(), params_->out_dim());
  for (std::size_t r = 0; r < Y.rows(); ++r) Y.set_row(r, params_->b);
  gemm_nt(X, params_->W, Y, /*accumulate=*/true);
}

template <class S>
MatrixT<S> DenseT<S>::forward_batch(MatrixT<S> X, bool keep_cache) {
  MatrixT<S> Y;
  forward_into(X, Y);
  if (keep_cache) inputs_.push_back(std::move(X));
  return Y;
}

template <class S>
void DenseT<S>::backward_into(const MatrixT<S>& X, const MatrixT<S>& dY, MatrixT<S>* dX) {
  assert(dY.cols() == params_->out_dim());
  if (dY.rows() != X.rows()) throw std::invalid_argument("Dense::backward: batch mismatch");
  gemm_tn(dY, X, params_->gW, /*accumulate=*/true);  // gW += dY^T X
  dY.add_col_sums_into(params_->gb);                 // gb += per-row dy, in row order
  if (dX != nullptr) gemm(dY, params_->W, *dX);      // dX = dY W
}

template <class S>
MatrixT<S> DenseT<S>::backward_batch(const MatrixT<S>& dY, bool want_input_grad) {
  if (inputs_.empty()) throw std::logic_error("Dense::backward without forward");
  const MatrixT<S> X = std::move(inputs_.back());
  inputs_.pop_back();
  MatrixT<S> dX;
  backward_into(X, dY, want_input_grad ? &dX : nullptr);
  return dX;
}

template <class S>
void DenseT<S>::collect_params(std::vector<ParamBlockPtrT<S>>& out) const {
  out.push_back(params_);
}

template <class S>
S activate(Activation kind, S x) noexcept {
  switch (kind) {
    case Activation::kIdentity: return x;
    case Activation::kRelu: return x > S(0) ? x : S(0);
    case Activation::kElu: return x > S(0) ? x : fastmath::expm1_s(x);
    case Activation::kTanh: return fastmath::tanh_s(x);
    case Activation::kSigmoid: return fastmath::sigmoid_s(x);
  }
  return x;
}

template <class S>
S activate_grad_from_output(Activation kind, S y) noexcept {
  switch (kind) {
    case Activation::kIdentity: return S(1);
    case Activation::kRelu: return y > S(0) ? S(1) : S(0);
    // ELU (alpha=1): y = e^x - 1 for x<=0, so dy/dx = e^x = y + 1; y>0 -> 1.
    case Activation::kElu: return y > S(0) ? S(1) : y + S(1);
    case Activation::kTanh: return S(1) - y * y;
    case Activation::kSigmoid: return y * (S(1) - y);
  }
  return S(1);
}

namespace {

// ELU forward in place, y = x > 0 ? x : expm1(x) — activate<S> element by
// element, bit for bit — without a per-element sign branch: the sign of a
// pre-activation is close to a coin flip, so that branch mispredicts on
// about half the elements.

// f64 keeps libm expm1: gather the indices of the non-positive elements
// (NaN included, as in activate) of a block into a stack buffer, then call
// expm1 on only those.
void elu_in_place(double* v, std::size_t size) {
  constexpr std::size_t kBlock = 128;  // indices fit one byte
  std::uint8_t idx[kBlock] = {};
  for (std::size_t i0 = 0; i0 < size; i0 += kBlock) {
    double* block = v + i0;
    const std::size_t len = std::min(kBlock, size - i0);
    std::size_t count = 0;
    for (std::size_t i = 0; i < len; ++i) {
      idx[count] = static_cast<std::uint8_t>(i);
      count += !(block[i] > 0.0);
    }
    for (std::size_t j = 0; j < count; ++j) block[idx[j]] = std::expm1(block[idx[j]]);
  }
}

// f32 evaluates fastmath::expm1_fast four lanes at a time and selects; the
// last size % 4 elements take the scalar function.
void elu_in_place(float* v, std::size_t size) {
  std::size_t i = 0;
#if defined(__GNUC__) || defined(__clang__)
  using fastmath::F4;
  for (; i + 4 <= size; i += 4) {
    F4 x;
    __builtin_memcpy(&x, v + i, sizeof(F4));
    x = fastmath::select(x > fastmath::splat(0.0f), x, fastmath::expm1_fast(x));
    __builtin_memcpy(v + i, &x, sizeof(F4));
  }
#endif
  for (; i < size; ++i) v[i] = activate(Activation::kElu, v[i]);
}

// Sigmoid forward in place, activate<S> element by element, bit for bit.
// f64 calls libm through the scalar function.
void sigmoid_in_place(double* v, std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) v[i] = fastmath::sigmoid_s(v[i]);
}

// f32 evaluates fastmath::exp_fast four lanes at a time, as ELU does: left
// to the autovectorizer, a -march=native build gave the NaN input a
// different sign than the scalar function. The last size % 4 elements take
// the scalar function.
void sigmoid_in_place(float* v, std::size_t size) {
  std::size_t i = 0;
#if defined(__GNUC__) || defined(__clang__)
  using fastmath::F4;
  for (; i + 4 <= size; i += 4) {
    F4 x;
    __builtin_memcpy(&x, v + i, sizeof(F4));
    x = 1.0f / (1.0f + fastmath::exp_fast(-x));
    __builtin_memcpy(v + i, &x, sizeof(F4));
  }
#endif
  for (; i < size; ++i) v[i] = activate(Activation::kSigmoid, v[i]);
}

}  // namespace

template <class S>
MatrixT<S> ActivationLayerT<S>::forward_batch(MatrixT<S> X, bool keep_cache) {
  assert(X.cols() == dim_);
  // Transform in place: the by-value input is ours to reuse, so inference
  // allocates nothing. Dispatch on the activation once, not per element, so
  // the simple kinds vectorize and the transcendental kinds lose the
  // per-element switch.
  S* v = X.data();
  const std::size_t size = X.size();
  switch (kind_) {
    case Activation::kIdentity:
      break;
    case Activation::kRelu:
      for (std::size_t i = 0; i < size; ++i) v[i] = v[i] > S(0) ? v[i] : S(0);
      break;
    case Activation::kElu:
      elu_in_place(v, size);
      break;
    case Activation::kTanh:
      for (std::size_t i = 0; i < size; ++i) v[i] = fastmath::tanh_s(v[i]);
      break;
    case Activation::kSigmoid:
      sigmoid_in_place(v, size);
      break;
  }
  if (keep_cache) outputs_.push_back(X);
  return X;
}

template <class S>
MatrixT<S> ActivationLayerT<S>::backward_batch(const MatrixT<S>& dY, bool /*want_input_grad*/) {
  // The "input gradient" of an activation is also its parameter-gradient
  // carrier for the layers below, so it is always computed.
  if (outputs_.empty()) throw std::logic_error("ActivationLayer::backward without forward");
  const MatrixT<S> Y = std::move(outputs_.back());
  outputs_.pop_back();
  if (!dY.same_shape(Y)) throw std::invalid_argument("ActivationLayer::backward: shape mismatch");
  MatrixT<S> dX;
  dX.resize_for_overwrite(dY.rows(), dY.cols());
  const S* dy = dY.data();
  const S* y = Y.data();
  S* dx = dX.data();
  const std::size_t size = dY.size();
  switch (kind_) {
    case Activation::kIdentity:
      for (std::size_t i = 0; i < size; ++i) dx[i] = dy[i];
      break;
    case Activation::kRelu:
      for (std::size_t i = 0; i < size; ++i) dx[i] = y[i] > S(0) ? dy[i] : S(0);
      break;
    case Activation::kElu:
      for (std::size_t i = 0; i < size; ++i) dx[i] = dy[i] * (y[i] > S(0) ? S(1) : y[i] + S(1));
      break;
    case Activation::kTanh:
      for (std::size_t i = 0; i < size; ++i) dx[i] = dy[i] * (S(1) - y[i] * y[i]);
      break;
    case Activation::kSigmoid:
      for (std::size_t i = 0; i < size; ++i) dx[i] = dy[i] * (y[i] * (S(1) - y[i]));
      break;
  }
  return dX;
}

#define HCRL_NN_INSTANTIATE_LAYER(S)                     \
  template class DenseT<S>;                              \
  template class ActivationLayerT<S>;                    \
  template S activate<S>(Activation, S) noexcept;        \
  template S activate_grad_from_output<S>(Activation, S) noexcept;

HCRL_NN_INSTANTIATE_LAYER(float)
HCRL_NN_INSTANTIATE_LAYER(double)
#undef HCRL_NN_INSTANTIATE_LAYER

}  // namespace hcrl::nn
