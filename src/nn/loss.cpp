#include "src/nn/loss.hpp"

#include <cmath>
#include <stdexcept>

namespace hcrl::nn {

template <class S>
BatchLossResultT<S> mse_loss_batch(const MatrixT<S>& pred, const MatrixT<S>& target,
                                   S grad_scale) {
  if (!pred.same_shape(target)) {
    throw std::invalid_argument("mse_loss_batch: shape mismatch " + pred.shape_string() + " vs " +
                                target.shape_string());
  }
  if (pred.size() == 0) throw std::invalid_argument("mse_loss_batch: empty");
  BatchLossResultT<S> out;
  out.grad.resize(pred.rows(), pred.cols());
  const S inv_c = S(1) / static_cast<S>(pred.cols());
  for (std::size_t b = 0; b < pred.rows(); ++b) {
    S row_value = S(0);
    for (std::size_t i = 0; i < pred.cols(); ++i) {
      const S d = pred(b, i) - target(b, i);
      row_value += d * d * inv_c;
      out.grad(b, i) = S(2) * d * inv_c * grad_scale;
    }
    out.value += static_cast<double>(row_value);
  }
  return out;
}

template <class S>
BatchLossResultT<S> masked_huber_loss_batch(const MatrixT<S>& pred,
                                            const std::vector<std::size_t>& index,
                                            const VecT<S>& target, S delta, S grad_scale) {
  if (index.size() != pred.rows() || target.size() != pred.rows()) {
    throw std::invalid_argument("masked_huber_loss_batch: need one index and target per row");
  }
  for (std::size_t b = 0; b < pred.rows(); ++b) {
    if (index[b] >= pred.cols()) {
      throw std::invalid_argument("masked_huber_loss_batch: index out of range");
    }
  }
  if (delta <= S(0)) throw std::invalid_argument("masked_huber_loss_batch: delta must be > 0");
  BatchLossResultT<S> out;
  out.grad.resize(pred.rows(), pred.cols(), S(0));
  for (std::size_t b = 0; b < pred.rows(); ++b) {
    const S d = pred(b, index[b]) - target[b];
    if (std::abs(d) <= delta) {
      out.value += static_cast<double>(S(0.5) * d * d);
      out.grad(b, index[b]) = d * grad_scale;
    } else {
      out.value += static_cast<double>(delta * (std::abs(d) - S(0.5) * delta));
      out.grad(b, index[b]) = (d > S(0) ? delta : -delta) * grad_scale;
    }
  }
  return out;
}

#define HCRL_NN_INSTANTIATE_LOSS(S)                                                          \
  template BatchLossResultT<S> mse_loss_batch<S>(const MatrixT<S>&, const MatrixT<S>&, S);   \
  template BatchLossResultT<S> masked_huber_loss_batch<S>(                                   \
      const MatrixT<S>&, const std::vector<std::size_t>&, const VecT<S>&, S, S);

HCRL_NN_INSTANTIATE_LOSS(float)
HCRL_NN_INSTANTIATE_LOSS(double)
#undef HCRL_NN_INSTANTIATE_LOSS

}  // namespace hcrl::nn
