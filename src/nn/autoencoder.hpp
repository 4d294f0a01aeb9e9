// Autoencoder used by the global tier to compress server-group states.
//
// The paper (§V-A, Fig. 6) uses a two-layer fully-connected ELU encoder with
// 30 and 15 neurons; the decoder mirrors it. One Autoencoder instance serves
// all K groups because the K logical autoencoders share weights: the global
// tier stacks the K group states as rows of one encode_batch.
//
// Templated on the Scalar type (float/double instantiations in
// autoencoder.cpp); `Autoencoder` aliases the double instantiation.
#pragma once

#include <vector>

#include "src/common/rng.hpp"
#include "src/nn/network.hpp"
#include "src/nn/optimizer.hpp"

namespace hcrl::nn {

/// Options are Scalar-independent (shared by both instantiations).
struct AutoencoderOptions {
  std::vector<std::size_t> encoder_dims = {30, 15};  // per the paper
  Activation activation = Activation::kElu;
  double learning_rate = 1e-3;
  double grad_clip = 10.0;
};

template <class S>
class AutoencoderT {
 public:
  using Options = AutoencoderOptions;

  AutoencoderT(std::size_t input_dim, const Options& opts, common::Rng& rng);

  std::size_t input_dim() const noexcept { return input_dim_; }
  std::size_t code_dim() const noexcept { return code_dim_; }

  /// Encode a (batch x input_dim) matrix of samples in one GEMM sweep,
  /// without caching (inference).
  MatrixT<S> encode_batch(MatrixT<S> X);

  /// One self-supervised training step on the samples stacked as a
  /// (batch x input_dim) matrix; returns the mean MSE.
  double train_batch_matrix(const MatrixT<S>& X);

  NetworkT<S>& encoder() noexcept { return encoder_; }
  NetworkT<S>& decoder() noexcept { return decoder_; }
  std::vector<ParamBlockPtrT<S>> params() const;
  std::size_t param_count() const;

 private:
  std::size_t input_dim_;
  std::size_t code_dim_;
  NetworkT<S> encoder_;
  NetworkT<S> decoder_;
  std::unique_ptr<AdamT<S>> optimizer_;
  double grad_clip_;
};

using Autoencoder = AutoencoderT<double>;

extern template class AutoencoderT<float>;
extern template class AutoencoderT<double>;

}  // namespace hcrl::nn
