#include "src/nn/network.hpp"

#include <iterator>
#include <stdexcept>

#include "src/nn/init.hpp"

namespace hcrl::nn {

template <class S>
NetworkT<S>& NetworkT<S>::add(LayerPtrT<S> layer) {
  if (!layer) throw std::invalid_argument("Network::add: null layer");
  if (!layers_.empty() && layers_.back()->out_dim() != layer->in_dim()) {
    throw std::invalid_argument("Network::add: dimension mismatch");
  }
  layers_.push_back(std::move(layer));
  return *this;
}

template <class S>
NetworkT<S>& NetworkT<S>::add_dense(std::size_t in_dim, std::size_t out_dim, Activation act,
                                    common::Rng& rng) {
  auto params = std::make_shared<DenseParamsT<S>>(out_dim, in_dim);
  init_dense(*params, rng);
  return add_shared_dense(std::move(params), act);
}

template <class S>
NetworkT<S>& NetworkT<S>::add_shared_dense(DenseParamsPtrT<S> params, Activation act) {
  const std::size_t out = params->out_dim();
  add(std::make_unique<DenseT<S>>(std::move(params)));
  if (act != Activation::kIdentity) {
    add(std::make_unique<ActivationLayerT<S>>(act, out));
  }
  return *this;
}

template <class S>
std::size_t NetworkT<S>::in_dim() const {
  if (layers_.empty()) throw std::logic_error("Network: empty");
  return layers_.front()->in_dim();
}

template <class S>
std::size_t NetworkT<S>::out_dim() const {
  if (layers_.empty()) throw std::logic_error("Network: empty");
  return layers_.back()->out_dim();
}

template <class S>
MatrixT<S> NetworkT<S>::forward_batch(MatrixT<S> X) {
  for (auto& layer : layers_) X = layer->forward_batch(std::move(X));
  return X;
}

template <class S>
MatrixT<S> NetworkT<S>::backward_batch(const MatrixT<S>& dY, bool want_input_grad) {
  MatrixT<S> G = dY;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    const bool innermost = std::next(it) == layers_.rend();
    G = (*it)->backward_batch(G, want_input_grad || !innermost);
  }
  return G;
}

template <class S>
MatrixT<S> NetworkT<S>::predict_batch(MatrixT<S> X) {
  // Inference: no caches are pushed at all, so predicting is safe even in
  // the middle of an un-backpropagated training pass.
  for (auto& layer : layers_) X = layer->forward_batch(std::move(X), /*keep_cache=*/false);
  return X;
}

template <class S>
void NetworkT<S>::zero_grad() {
  for (const auto& p : params()) p->zero_grad();
}

template <class S>
std::vector<ParamBlockPtrT<S>> NetworkT<S>::params() const {
  std::vector<ParamBlockPtrT<S>> out;
  for (const auto& layer : layers_) layer->collect_params(out);
  return out;
}

template <class S>
std::size_t NetworkT<S>::param_count() const {
  std::size_t n = 0;
  for (const auto& p : params()) n += p->param_count();
  return n;
}

template class NetworkT<float>;
template class NetworkT<double>;

}  // namespace hcrl::nn
