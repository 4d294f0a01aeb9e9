#include "src/nn/autoencoder.hpp"

#include <stdexcept>

#include "src/nn/loss.hpp"

namespace hcrl::nn {

template <class S>
AutoencoderT<S>::AutoencoderT(std::size_t input_dim, const Options& opts, common::Rng& rng)
    : input_dim_(input_dim), grad_clip_(opts.grad_clip) {
  if (input_dim == 0) throw std::invalid_argument("Autoencoder: input_dim must be > 0");
  if (opts.encoder_dims.empty()) {
    throw std::invalid_argument("Autoencoder: need at least one encoder layer");
  }
  std::size_t prev = input_dim;
  for (std::size_t dim : opts.encoder_dims) {
    encoder_.add_dense(prev, dim, opts.activation, rng);
    prev = dim;
  }
  code_dim_ = prev;
  for (std::size_t i = opts.encoder_dims.size(); i-- > 1;) {
    decoder_.add_dense(prev, opts.encoder_dims[i - 1], opts.activation, rng);
    prev = opts.encoder_dims[i - 1];
  }
  // Linear output layer: utilizations are reconstructed unconstrained and
  // the MSE pulls them into range; a linear head trains faster than a
  // saturating one on near-zero targets.
  decoder_.add_dense(prev, input_dim, Activation::kIdentity, rng);

  auto all = params();
  optimizer_ = std::make_unique<AdamT<S>>(all, AdamOptions{.lr = opts.learning_rate});
}

template <class S>
MatrixT<S> AutoencoderT<S>::encode_batch(MatrixT<S> X) {
  if (X.cols() != input_dim_) {
    throw std::invalid_argument("Autoencoder::encode_batch: input is " + X.shape_string());
  }
  return encoder_.predict_batch(std::move(X));
}

template <class S>
double AutoencoderT<S>::train_batch_matrix(const MatrixT<S>& X) {
  if (X.rows() == 0 || X.cols() != input_dim_) {
    throw std::invalid_argument("Autoencoder::train_batch_matrix: input is " + X.shape_string());
  }
  optimizer_->zero_grad();
  // One batched reconstruction pass: per-sample gradient accumulation folds
  // into the GEMMs of the backward sweep.
  const double inv_n = 1.0 / static_cast<double>(X.rows());
  MatrixT<S> code = encoder_.forward_batch(X);
  MatrixT<S> recon = decoder_.forward_batch(code);
  BatchLossResultT<S> loss = mse_loss_batch(recon, X, static_cast<S>(inv_n));
  MatrixT<S> dcode = decoder_.backward_batch(loss.grad);
  encoder_.backward_batch(dcode, /*want_input_grad=*/false);
  clip_grad_norm(params(), grad_clip_);
  optimizer_->step();
  return loss.value * inv_n;
}

template <class S>
std::vector<ParamBlockPtrT<S>> AutoencoderT<S>::params() const {
  auto out = encoder_.params();
  auto dec = decoder_.params();
  out.insert(out.end(), dec.begin(), dec.end());
  return out;
}

template <class S>
std::size_t AutoencoderT<S>::param_count() const {
  std::size_t n = 0;
  for (const auto& p : params()) n += p->param_count();
  return n;
}

template class AutoencoderT<float>;
template class AutoencoderT<double>;

}  // namespace hcrl::nn
