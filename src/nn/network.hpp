// Sequential feed-forward network built from layers.
//
// Templated on the Scalar type (float/double instantiations in network.cpp);
// `Network` aliases the double instantiation.
#pragma once

#include <initializer_list>
#include <memory>
#include <vector>

#include "src/common/rng.hpp"
#include "src/nn/layer.hpp"

namespace hcrl::nn {

template <class S>
class NetworkT {
 public:
  NetworkT() = default;

  /// Append a layer; dimensions must chain (checked).
  NetworkT& add(LayerPtrT<S> layer);
  /// Convenience: append a freshly-initialized dense layer + activation.
  NetworkT& add_dense(std::size_t in_dim, std::size_t out_dim, Activation act, common::Rng& rng);
  /// Append a dense layer over an existing (shared) parameter block.
  NetworkT& add_shared_dense(DenseParamsPtrT<S> params, Activation act);

  std::size_t in_dim() const;
  std::size_t out_dim() const;
  bool empty() const noexcept { return layers_.empty(); }

  // A (batch x dim) activation matrix flows through the GEMM kernels; one
  // call handles a whole minibatch, or one sample as a batch of one.
  MatrixT<S> forward_batch(MatrixT<S> X);
  /// Backward through the whole stack; returns dL/dX (batch x in_dim).
  /// Trainers that discard dL/dX pass want_input_grad = false to skip the
  /// first layer's input-gradient GEMM (the result is then empty).
  MatrixT<S> backward_batch(const MatrixT<S>& dY, bool want_input_grad = true);
  /// Batched forward without keeping caches (inference only).
  MatrixT<S> predict_batch(MatrixT<S> X);

  void zero_grad();
  std::vector<ParamBlockPtrT<S>> params() const;
  std::size_t param_count() const;

 private:
  std::vector<LayerPtrT<S>> layers_;
};

using Network = NetworkT<double>;

extern template class NetworkT<float>;
extern template class NetworkT<double>;

}  // namespace hcrl::nn
