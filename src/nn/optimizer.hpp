// Adam over parameter blocks, plus global-norm gradient clipping.
//
// The paper trains the global-tier DNN and the LSTM predictor with Adam
// (Kingma & Ba) and clips gradients to a global norm of 10. Templated on
// the Scalar type of the parameters (float/double instantiations in
// optimizer.cpp); hyper-parameters stay double and the per-element update
// runs in Scalar. The global-norm accumulation always runs in double so the
// f32 path cannot overflow/saturate the squared-norm sum.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/nn/param.hpp"

namespace hcrl::nn {

/// Scale all gradients so their global L2 norm is at most max_norm.
/// Returns the pre-clip norm.
template <class S>
double clip_grad_norm(const std::vector<ParamBlockPtrT<S>>& params, double max_norm);

/// Adam with bias correction; epsilon in the denominator as in the paper's
/// reference [27] (Kingma & Ba 2014).
struct AdamOptions {
  double lr = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
};

template <class S>
class AdamT final {
 public:
  using Options = AdamOptions;

  explicit AdamT(std::vector<ParamBlockPtrT<S>> params);
  AdamT(std::vector<ParamBlockPtrT<S>> params, Options opts);

  /// Apply one update using the currently-accumulated gradients, then leave
  /// gradients untouched (the caller decides when to zero).
  void step();
  void zero_grad();
  std::int64_t steps_taken() const noexcept { return t_; }

 private:
  std::vector<ParamBlockPtrT<S>> params_;
  Options opts_;
  std::int64_t t_ = 0;
  std::vector<std::vector<S>> m_;  // first moment, one per segment
  std::vector<std::vector<S>> v_;  // second moment
  std::vector<ParamSegmentT<S>> segments_;
};

using Adam = AdamT<double>;

extern template class AdamT<float>;
extern template class AdamT<double>;

}  // namespace hcrl::nn
