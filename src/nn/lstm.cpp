#include "src/nn/lstm.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "src/nn/fastmath.hpp"

namespace hcrl::nn {

namespace {
template <class S>
inline S sigmoid(S x) noexcept {
  return fastmath::sigmoid_s(x);
}
template <class S>
inline S cell_tanh(S x) noexcept {
  return fastmath::tanh_s(x);
}

// The steps' dZ, X and H_prev, stacked newest first for the gradient GEMMs.
// They live only inside one backward_batch() call, so one set per thread
// serves every cell (the per-server predictors of a scenario share it).
template <class S>
struct StepStacks {
  MatrixT<S> dz, x, h_prev;
};

template <class S>
StepStacks<S>& step_stacks() {
  thread_local StepStacks<S> stacks;
  return stacks;
}

template <class S>
void transpose_into(const MatrixT<S>& src, MatrixT<S>& dst) {
  dst.resize_for_overwrite(src.cols(), src.rows());
  for (std::size_t r = 0; r < src.rows(); ++r) {
    for (std::size_t c = 0; c < src.cols(); ++c) dst(c, r) = src(r, c);
  }
}
}  // namespace

template <class S>
LstmT<S>::LstmT(LstmParamsPtrT<S> params) : params_(std::move(params)) {
  if (!params_) throw std::invalid_argument("Lstm: null params");
  reset();
}

template <class S>
void LstmT<S>::reset() {
  reset_batch(1);
}

template <class S>
void LstmT<S>::reset_batch(std::size_t batch) {
  if (batch == 0) throw std::invalid_argument("Lstm::reset_batch: batch must be > 0");
  batch_ = batch;
  h_.resize(batch, hidden_dim(), S(0));
  c_.resize(batch, hidden_dim(), S(0));
  recycle_cache();
  transpose_into(params_->Wx, WxT_);
  transpose_into(params_->Wh, WhT_);
}

template <class S>
typename LstmT<S>::StepCache LstmT<S>::take_spare() {
  if (spare_.empty()) return StepCache{};
  StepCache sc = std::move(spare_.back());
  spare_.pop_back();
  return sc;
}

template <class S>
void LstmT<S>::recycle_cache() {
  for (auto& sc : cache_) spare_.push_back(std::move(sc));
  cache_.clear();
}

template <class S>
const MatrixT<S>& LstmT<S>::step_batch(const MatrixT<S>& X, bool keep_cache) {
  if (X.cols() != in_dim()) {
    throw std::invalid_argument("Lstm::step_batch: input is " + X.shape_string());
  }
  if (X.rows() != batch_) {
    throw std::invalid_argument("Lstm::step_batch: batch changed mid-sequence; reset_batch first");
  }
  const std::size_t B = batch_;
  const std::size_t H = hidden_dim();

  // All four gate pre-activations for the whole batch in one GEMM per
  // operand: Z = b + X Wx^T + H_prev Wh^T, shape (B x 4H). The bias seeds
  // the rows, and each product adds its k-sum (started from 0, increasing
  // k) on top. Multiplying by the transposed copies puts the 4H gates in
  // the GEMM's vector lanes.
  MatrixT<S>& Z = z_scratch_;
  Z.resize_for_overwrite(B, 4 * H);
  for (std::size_t b = 0; b < B; ++b) Z.set_row(b, params_->b);
  gemm(X, WxT_, Z, /*accumulate=*/true);
  gemm(h_, WhT_, Z, /*accumulate=*/true);

  if (!keep_cache) {
    // Inference: update h/c in place, no per-step cache.
    for (std::size_t b = 0; b < B; ++b) {
      for (std::size_t j = 0; j < H; ++j) {
        const S i = sigmoid(Z(b, j));
        const S f = sigmoid(Z(b, H + j));
        const S g = cell_tanh(Z(b, 2 * H + j));
        const S o = sigmoid(Z(b, 3 * H + j));
        c_(b, j) = f * c_(b, j) + i * g;
        h_(b, j) = o * cell_tanh(c_(b, j));
      }
    }
    return h_;
  }

  StepCache sc = take_spare();
  sc.X = X;
  sc.Hprev = h_;
  sc.Cprev = c_;
  sc.I.resize_for_overwrite(B, H);
  sc.F.resize_for_overwrite(B, H);
  sc.G.resize_for_overwrite(B, H);
  sc.O.resize_for_overwrite(B, H);
  sc.C.resize_for_overwrite(B, H);
  sc.TanhC.resize_for_overwrite(B, H);

  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t j = 0; j < H; ++j) {
      const S i = sigmoid(Z(b, j));
      const S f = sigmoid(Z(b, H + j));
      const S g = cell_tanh(Z(b, 2 * H + j));
      const S o = sigmoid(Z(b, 3 * H + j));
      const S c = f * sc.Cprev(b, j) + i * g;
      const S tc = cell_tanh(c);
      sc.I(b, j) = i;
      sc.F(b, j) = f;
      sc.G(b, j) = g;
      sc.O(b, j) = o;
      sc.C(b, j) = c;
      sc.TanhC(b, j) = tc;
      h_(b, j) = o * tc;
    }
  }
  c_ = sc.C;
  cache_.push_back(std::move(sc));
  return h_;
}

template <class S>
const MatrixT<S>& LstmT<S>::backward_batch(const std::vector<MatrixT<S>>& dH) {
  const std::size_t B = batch_;
  const std::size_t H = hidden_dim();
  const std::size_t T = cache_.size();
  if (dH.size() != T) throw std::invalid_argument("Lstm::backward: dH size != cached steps");
  // Validate every dH shape up front so a mismatch cannot throw after some
  // timesteps already accumulated into the shared parameter gradients.
  for (std::size_t t = 0; t < T; ++t) {
    if (dH[t].rows() != B || dH[t].cols() != H) {
      throw std::invalid_argument("Lstm::backward: dH[" + std::to_string(t) + "] is " +
                                  dH[t].shape_string());
    }
  }
  if (T == 0) {
    dxs_.resize_for_overwrite(0, in_dim());
    return dxs_;
  }
  dh_next_.resize(B, H, S(0));  // dL/dh_t flowing from step t+1
  dc_next_.resize(B, H, S(0));  // dL/dc_t flowing from step t+1
  dz_.resize_for_overwrite(B, 4 * H);
  StepStacks<S>& st = step_stacks<S>();
  st.dz.resize_for_overwrite(T * B, 4 * H);
  st.x.resize_for_overwrite(T * B, in_dim());
  st.h_prev.resize_for_overwrite(T * B, H);
  dxs_.resize_for_overwrite(T * B, in_dim());

  // dL/dh_{t-1} and dL/dX_t are per step (each dL/dX row one k-chain over
  // the 4H gates, as a batch-1 GEMM runs it); each step's dZ, X and H_prev
  // are stacked at row block s = T-1-t for the gradient GEMMs after the loop.
  for (std::size_t s = 0; s < T; ++s) {
    const std::size_t tt = T - 1 - s;
    const StepCache& sc = cache_[tt];
    for (std::size_t b = 0; b < B; ++b) {
      for (std::size_t j = 0; j < H; ++j) {
        // dL/dh_t: the step's own loss term plus step t+1's.
        const S dh = dH[tt](b, j) + dh_next_(b, j);
        // h = o * tanh(c)
        const S do_ = dh * sc.TanhC(b, j);
        const S dc = dh * sc.O(b, j) * (S(1) - sc.TanhC(b, j) * sc.TanhC(b, j)) + dc_next_(b, j);
        const S di = dc * sc.G(b, j);
        const S df = dc * sc.Cprev(b, j);
        const S dg = dc * sc.I(b, j);
        // gate pre-activations
        dz_(b, j) = di * sc.I(b, j) * (S(1) - sc.I(b, j));
        dz_(b, H + j) = df * sc.F(b, j) * (S(1) - sc.F(b, j));
        dz_(b, 2 * H + j) = dg * (S(1) - sc.G(b, j) * sc.G(b, j));
        dz_(b, 3 * H + j) = do_ * sc.O(b, j) * (S(1) - sc.O(b, j));
        dc_next_(b, j) = dc * sc.F(b, j);
      }
    }
    gemm_nt(dz_, WxT_, dx_);
    std::copy_n(dx_.data(), dx_.size(), dxs_.data() + s * dx_.size());
    std::copy_n(dz_.data(), dz_.size(), st.dz.data() + s * dz_.size());
    std::copy_n(sc.X.data(), sc.X.size(), st.x.data() + s * sc.X.size());
    std::copy_n(sc.Hprev.data(), sc.Hprev.size(), st.h_prev.data() + s * sc.Hprev.size());
    if (tt > 0) gemm(dz_, params_->Wh, dh_next_);
  }

  gemm_tn(st.dz, st.x, params_->gWx, /*accumulate=*/true);
  gemm_tn(st.dz, st.h_prev, params_->gWh, /*accumulate=*/true);
  st.dz.add_col_sums_into(params_->gb);
  recycle_cache();
  return dxs_;
}

template class LstmT<float>;
template class LstmT<double>;

}  // namespace hcrl::nn
