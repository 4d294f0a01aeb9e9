// Parameter blocks: the unit of ownership, sharing and optimization.
//
// Layers hold parameters through shared_ptr<...Params>, which is exactly how
// the paper's weight sharing (Fig. 6) is expressed: K autoencoders (and the
// K Sub-Q heads) hold the *same* parameter block, so every training sample
// updates the shared weights and gradients accumulate across uses.
//
// Everything is templated on the Scalar type (float/double instantiations in
// param.cpp); the unsuffixed names alias the double instantiation.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "src/nn/matrix.hpp"

namespace hcrl::nn {

/// A view over one contiguous run of parameters and its gradient.
template <class S>
struct ParamSegmentT {
  S* value = nullptr;
  S* grad = nullptr;
  std::size_t n = 0;
};

/// Anything the optimizer can update.
template <class S>
class ParamBlockT {
 public:
  virtual ~ParamBlockT() = default;

  /// Append (value, grad) segments. Order must be stable across calls.
  virtual void append_segments(std::vector<ParamSegmentT<S>>& out) = 0;

  std::size_t param_count() {
    std::vector<ParamSegmentT<S>> segs;
    append_segments(segs);
    std::size_t n = 0;
    for (const auto& s : segs) n += s.n;
    return n;
  }

  void zero_grad() {
    std::vector<ParamSegmentT<S>> segs;
    append_segments(segs);
    for (auto& s : segs) {
      for (std::size_t i = 0; i < s.n; ++i) s.grad[i] = S(0);
    }
  }
};

template <class S>
using ParamBlockPtrT = std::shared_ptr<ParamBlockT<S>>;

/// Parameters of a fully-connected layer: y = W x + b.
template <class S>
class DenseParamsT final : public ParamBlockT<S> {
 public:
  DenseParamsT(std::size_t out_dim, std::size_t in_dim)
      : W(out_dim, in_dim), b(out_dim, S(0)), gW(out_dim, in_dim), gb(out_dim, S(0)) {}

  std::size_t in_dim() const noexcept { return W.cols(); }
  std::size_t out_dim() const noexcept { return W.rows(); }

  void append_segments(std::vector<ParamSegmentT<S>>& out) override {
    out.push_back({W.data(), gW.data(), W.size()});
    out.push_back({b.data(), gb.data(), b.size()});
  }

  MatrixT<S> W;
  VecT<S> b;
  MatrixT<S> gW;
  VecT<S> gb;
};

template <class S>
using DenseParamsPtrT = std::shared_ptr<DenseParamsT<S>>;

/// Parameters of an LSTM layer. Gates are packed [i, f, g, o] along rows.
template <class S>
class LstmParamsT final : public ParamBlockT<S> {
 public:
  LstmParamsT(std::size_t hidden_dim, std::size_t in_dim)
      : Wx(4 * hidden_dim, in_dim),
        Wh(4 * hidden_dim, hidden_dim),
        b(4 * hidden_dim, S(0)),
        gWx(4 * hidden_dim, in_dim),
        gWh(4 * hidden_dim, hidden_dim),
        gb(4 * hidden_dim, S(0)),
        hidden_(hidden_dim),
        in_(in_dim) {}

  std::size_t hidden_dim() const noexcept { return hidden_; }
  std::size_t in_dim() const noexcept { return in_; }

  void append_segments(std::vector<ParamSegmentT<S>>& out) override {
    out.push_back({Wx.data(), gWx.data(), Wx.size()});
    out.push_back({Wh.data(), gWh.data(), Wh.size()});
    out.push_back({b.data(), gb.data(), b.size()});
  }

  MatrixT<S> Wx;  // input->gates
  MatrixT<S> Wh;  // hidden->gates
  VecT<S> b;
  MatrixT<S> gWx;
  MatrixT<S> gWh;
  VecT<S> gb;

 private:
  std::size_t hidden_;
  std::size_t in_;
};

template <class S>
using LstmParamsPtrT = std::shared_ptr<LstmParamsT<S>>;

using ParamSegment = ParamSegmentT<double>;
using ParamBlock = ParamBlockT<double>;
using ParamBlockPtr = ParamBlockPtrT<double>;
using DenseParams = DenseParamsT<double>;
using DenseParamsPtr = DenseParamsPtrT<double>;
using LstmParams = LstmParamsT<double>;
using LstmParamsPtr = LstmParamsPtrT<double>;

/// Flatten the segments of a list of blocks (order = registration order).
template <class S>
std::vector<ParamSegmentT<S>> gather_segments(const std::vector<ParamBlockPtrT<S>>& params);

/// Copy parameter *values* from src to dst; shapes must match in total size
/// and per-segment sizes (used for target-network sync).
template <class S>
void copy_param_values(const std::vector<ParamBlockPtrT<S>>& src,
                       const std::vector<ParamBlockPtrT<S>>& dst);

/// Flattened copy of all parameter values as doubles (precision-agnostic —
/// what the type-erased agent boundary exposes for tests and tools).
template <class S>
std::vector<double> flatten_param_values(const std::vector<ParamBlockPtrT<S>>& params);

}  // namespace hcrl::nn
