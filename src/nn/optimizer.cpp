#include "src/nn/optimizer.hpp"

#include <cmath>
#include <stdexcept>

namespace hcrl::nn {

template <class S>
double clip_grad_norm(const std::vector<ParamBlockPtrT<S>>& params, double max_norm) {
  if (max_norm <= 0.0) throw std::invalid_argument("clip_grad_norm: max_norm must be > 0");
  auto segs = gather_segments(params);
  double sq = 0.0;
  for (const auto& s : segs) {
    for (std::size_t i = 0; i < s.n; ++i) {
      sq += static_cast<double>(s.grad[i]) * static_cast<double>(s.grad[i]);
    }
  }
  const double total = std::sqrt(sq);
  if (total > max_norm) {
    const S scale = static_cast<S>(max_norm / total);
    for (auto& s : segs) {
      for (std::size_t i = 0; i < s.n; ++i) s.grad[i] *= scale;
    }
  }
  return total;
}

template <class S>
AdamT<S>::AdamT(std::vector<ParamBlockPtrT<S>> params) : AdamT(std::move(params), Options{}) {}

template <class S>
AdamT<S>::AdamT(std::vector<ParamBlockPtrT<S>> params, Options opts)
    : params_(std::move(params)), opts_(opts) {
  if (opts_.lr <= 0.0) throw std::invalid_argument("Adam: lr must be > 0");
  segments_ = gather_segments(params_);
  m_.reserve(segments_.size());
  v_.reserve(segments_.size());
  for (const auto& s : segments_) {
    m_.emplace_back(s.n, S(0));
    v_.emplace_back(s.n, S(0));
  }
}

template <class S>
void AdamT<S>::step() {
  ++t_;
  // Hoist the bias corrections into reciprocals: one divide and one sqrt per
  // element instead of three divides, and the loop body stays branch-free so
  // it can vectorize. This is the whole-network fixed cost of every SGD
  // step, so it shows up directly in the train-step benchmarks. The hoisted
  // constants are computed in double, then cast once to the element type.
  const S inv_bc1 = static_cast<S>(1.0 / (1.0 - std::pow(opts_.beta1, static_cast<double>(t_))));
  const S inv_bc2 = static_cast<S>(1.0 / (1.0 - std::pow(opts_.beta2, static_cast<double>(t_))));
  const S beta1 = static_cast<S>(opts_.beta1);
  const S beta2 = static_cast<S>(opts_.beta2);
  const S one_minus_beta1 = S(1) - beta1;
  const S one_minus_beta2 = S(1) - beta2;
  const S lr = static_cast<S>(opts_.lr);
  const S epsilon = static_cast<S>(opts_.epsilon);
  for (std::size_t k = 0; k < segments_.size(); ++k) {
    auto& s = segments_[k];
    S* m = m_[k].data();
    S* v = v_[k].data();
    for (std::size_t i = 0; i < s.n; ++i) {
      const S g = s.grad[i];
      m[i] = beta1 * m[i] + one_minus_beta1 * g;
      v[i] = beta2 * v[i] + one_minus_beta2 * g * g;
      const S m_hat = m[i] * inv_bc1;
      const S v_hat = v[i] * inv_bc2;
      s.value[i] -= lr * m_hat / (std::sqrt(v_hat) + epsilon);
    }
  }
}

template <class S>
void AdamT<S>::zero_grad() {
  for (const auto& p : params_) p->zero_grad();
}

template double clip_grad_norm<float>(const std::vector<ParamBlockPtrT<float>>&, double);
template double clip_grad_norm<double>(const std::vector<ParamBlockPtrT<double>>&, double);
template class AdamT<float>;
template class AdamT<double>;

}  // namespace hcrl::nn
