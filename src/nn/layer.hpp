// Layers with explicit forward/backward and LIFO activation caches.
//
// A layer may be applied several times within one computation (this happens
// whenever parameters are shared, e.g. the K autoencoders of the global
// tier). Each forward pushes its cache; each backward pops. Backward
// passes must therefore run in exactly reverse order of the forward calls,
// which is the natural order of reverse-mode differentiation.
//
// The interface is *batched*: activations travel as a (batch x dim) Matrix
// and the heavy lifting happens in the GEMM kernels of matrix.hpp. One
// sample is a batch of one (MatrixT::from_row), through the same kernels,
// so a batched call equals its rows run one at a time (pinned by
// tests/batch_parity_test.cpp). Layers are templated on the Scalar type
// (float/double instantiations in layer.cpp); the unsuffixed names alias
// the double instantiation.
#pragma once

#include <memory>
#include <vector>

#include "src/nn/param.hpp"

namespace hcrl::nn {

template <class S>
class LayerT {
 public:
  virtual ~LayerT() = default;

  virtual std::size_t in_dim() const = 0;
  virtual std::size_t out_dim() const = 0;

  /// Compute outputs for a (batch x in_dim) input. Takes the activation by
  /// value so callers that are done with it can std::move it in and the
  /// cache push becomes a move instead of a copy. With keep_cache, pushes
  /// whatever backward_batch() needs (LIFO); inference passes false and
  /// skips the caches entirely.
  virtual MatrixT<S> forward_batch(MatrixT<S> X, bool keep_cache = true) = 0;
  /// Given dL/dY (batch x out_dim), accumulate parameter gradients and
  /// return dL/dX. Must be called once per pending forward, in reverse
  /// order, with the same batch size as the matching forward. When the
  /// caller discards dL/dX (every trainer's first layer does), pass
  /// want_input_grad = false to skip computing it; the returned matrix is
  /// then empty.
  virtual MatrixT<S> backward_batch(const MatrixT<S>& dY, bool want_input_grad = true) = 0;

  /// Parameter blocks of this layer (empty for activations).
  virtual void collect_params(std::vector<ParamBlockPtrT<S>>& out) const = 0;
};

template <class S>
using LayerPtrT = std::unique_ptr<LayerT<S>>;

/// Fully-connected layer Y = X W^T + b over a (possibly shared) DenseParams.
template <class S>
class DenseT final : public LayerT<S> {
 public:
  explicit DenseT(DenseParamsPtrT<S> params);

  std::size_t in_dim() const override { return params_->in_dim(); }
  std::size_t out_dim() const override { return params_->out_dim(); }

  MatrixT<S> forward_batch(MatrixT<S> X, bool keep_cache = true) override;
  MatrixT<S> backward_batch(const MatrixT<S>& dY, bool want_input_grad = true) override;
  void collect_params(std::vector<ParamBlockPtrT<S>>& out) const override;

  /// Cache-free forms of forward_batch / backward_batch, for a caller that
  /// keeps the layer input itself: the same arithmetic, written into the
  /// caller's buffers, so a hot loop that reuses them allocates nothing.
  /// forward_into sets Y = X W^T + b. backward_into adds the gradients of
  /// the input X for dL/dY to the parameters and, unless dX is null, sets
  /// *dX = dL/dX. Y and *dX must not alias an input.
  void forward_into(const MatrixT<S>& X, MatrixT<S>& Y) const;
  void backward_into(const MatrixT<S>& X, const MatrixT<S>& dY, MatrixT<S>* dX);

  const DenseParamsPtrT<S>& params() const noexcept { return params_; }

 private:
  DenseParamsPtrT<S> params_;
  std::vector<MatrixT<S>> inputs_;
};

enum class Activation { kIdentity, kRelu, kElu, kTanh, kSigmoid };

/// Elementwise activation layer.
template <class S>
class ActivationLayerT final : public LayerT<S> {
 public:
  ActivationLayerT(Activation kind, std::size_t dim) : kind_(kind), dim_(dim) {}

  std::size_t in_dim() const override { return dim_; }
  std::size_t out_dim() const override { return dim_; }

  MatrixT<S> forward_batch(MatrixT<S> X, bool keep_cache = true) override;
  MatrixT<S> backward_batch(const MatrixT<S>& dY, bool want_input_grad = true) override;
  void collect_params(std::vector<ParamBlockPtrT<S>>&) const override {}

  Activation kind() const noexcept { return kind_; }

 private:
  Activation kind_;
  std::size_t dim_;
  // We cache *outputs*: for all supported activations the derivative is
  // expressible from the output alone, halving cache traffic.
  std::vector<MatrixT<S>> outputs_;
};

using Layer = LayerT<double>;
using LayerPtr = LayerPtrT<double>;
using Dense = DenseT<double>;
using ActivationLayer = ActivationLayerT<double>;

// Scalar activation: the batched sweeps match it bit for bit (exposed for
// tests).
template <class S>
S activate(Activation kind, S x) noexcept;

}  // namespace hcrl::nn
