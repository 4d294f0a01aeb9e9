#include "src/nn/layer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "src/common/rng.hpp"
#include "src/nn/init.hpp"

namespace hcrl::nn {
namespace {

DenseParamsPtr make_params(std::size_t out, std::size_t in, double wfill, double bfill) {
  auto p = std::make_shared<DenseParams>(out, in);
  p->W.fill(wfill);
  for (auto& b : p->b) b = bfill;
  return p;
}

// One sample through a layer as a batch of one (the forward keeps its cache).
Vec forward1(Layer& layer, const Vec& x) { return layer.forward_batch(Matrix::from_row(x)).row(0); }
Vec backward1(Layer& layer, const Vec& dy) {
  return layer.backward_batch(Matrix::from_row(dy)).row(0);
}

TEST(Dense, ForwardAffine) {
  Dense layer(make_params(2, 3, 1.0, 0.5));
  const Vec y = forward1(layer, {1.0, 2.0, 3.0});
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 6.5);
  EXPECT_DOUBLE_EQ(y[1], 6.5);
}

TEST(Dense, BackwardGradients) {
  auto params = make_params(1, 2, 0.0, 0.0);
  params->W(0, 0) = 2.0;
  params->W(0, 1) = -1.0;
  Dense layer(params);
  forward1(layer, {3.0, 4.0});
  const Vec dx = backward1(layer, {1.0});
  // dL/dx = W^T dy
  EXPECT_DOUBLE_EQ(dx[0], 2.0);
  EXPECT_DOUBLE_EQ(dx[1], -1.0);
  // dL/dW = dy * x^T; dL/db = dy
  EXPECT_DOUBLE_EQ(params->gW(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(params->gW(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(params->gb[0], 1.0);
}

TEST(Dense, BackwardWithoutForwardThrows) {
  Dense layer(make_params(1, 1, 1.0, 0.0));
  EXPECT_THROW(backward1(layer, {1.0}), std::logic_error);
}

TEST(Dense, GradientsAccumulateAcrossUses) {
  auto params = make_params(1, 1, 1.0, 0.0);
  Dense layer(params);
  forward1(layer, {2.0});
  forward1(layer, {3.0});
  backward1(layer, {1.0});  // pops the x=3 cache
  backward1(layer, {1.0});  // pops the x=2 cache
  EXPECT_DOUBLE_EQ(params->gW(0, 0), 5.0);  // 3 + 2
  EXPECT_DOUBLE_EQ(params->gb[0], 2.0);
}

TEST(Dense, SharedParamsBetweenTwoLayers) {
  auto params = make_params(1, 1, 2.0, 0.0);
  Dense a(params), b(params);
  forward1(a, {1.0});
  forward1(b, {10.0});
  backward1(b, {1.0});
  backward1(a, {1.0});
  EXPECT_DOUBLE_EQ(params->gW(0, 0), 11.0);  // both uses hit the shared grad
}

TEST(Dense, NullParamsThrows) { EXPECT_THROW(Dense(nullptr), std::invalid_argument); }

TEST(Activations, ScalarValues) {
  EXPECT_DOUBLE_EQ(activate(Activation::kIdentity, -2.0), -2.0);
  EXPECT_DOUBLE_EQ(activate(Activation::kRelu, -2.0), 0.0);
  EXPECT_DOUBLE_EQ(activate(Activation::kRelu, 2.0), 2.0);
  EXPECT_NEAR(activate(Activation::kElu, -1.0), std::expm1(-1.0), 1e-12);
  EXPECT_DOUBLE_EQ(activate(Activation::kElu, 3.0), 3.0);
  EXPECT_NEAR(activate(Activation::kTanh, 0.5), std::tanh(0.5), 1e-12);
  EXPECT_DOUBLE_EQ(activate(Activation::kSigmoid, 0.0), 0.5);
}

// The derivative the Sub-Q and autoencoder networks run, from the cached
// output: ActivationLayerT::backward_batch at batch 1 against a central
// difference of the f64 scalar activation, for every activation.
template <class S>
void check_activation_backward_matches_numerical(double tol) {
  for (Activation kind : {Activation::kIdentity, Activation::kRelu, Activation::kElu,
                          Activation::kTanh, Activation::kSigmoid}) {
    for (double x : {-1.5, -0.3, 0.2, 1.7}) {
      ActivationLayerT<S> layer(kind, 1);
      layer.forward_batch(MatrixT<S>::from_row(VecT<S>{static_cast<S>(x)}));
      const MatrixT<S> dx = layer.backward_batch(MatrixT<S>::from_row(VecT<S>{S(1)}));
      const double h = 1e-6;
      const double numerical = (activate(kind, x + h) - activate(kind, x - h)) / (2 * h);
      EXPECT_NEAR(static_cast<double>(dx(0, 0)), numerical, tol)
          << "kind=" << static_cast<int>(kind) << " x=" << x;
    }
  }
}

TEST(Activations, GradFromOutputMatchesNumerical) {
  check_activation_backward_matches_numerical<double>(1e-5);
  check_activation_backward_matches_numerical<float>(1e-4);
}

TEST(ActivationLayer, ForwardBackwardShape) {
  ActivationLayer layer(Activation::kTanh, 3);
  const Vec y = forward1(layer, {0.0, 1.0, -1.0});
  ASSERT_EQ(y.size(), 3u);
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  const Vec dx = backward1(layer, {1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(dx[0], 1.0);  // tanh'(0) = 1
  EXPECT_NEAR(dx[1], 1.0 - std::tanh(1.0) * std::tanh(1.0), 1e-12);
}

// The batched activation sweep must equal the scalar activate<S>, bit for
// bit, element by element: the inputs probe both ELU arms, the expm1_fast
// Taylor switch at |x| = 0.25, the exp_fast clamps, ±0 and NaN, each at
// every lane offset and in the scalar tail of a size that is not a
// multiple of 4.
template <class S>
void check_activation_sweep_matches_scalar() {
  std::vector<S> specials = {S(0), -S(0), std::numeric_limits<S>::quiet_NaN(), S(-1e30), S(1e30),
                             S(-87.33), S(88.37)};
  for (const S t : {S(0.25), S(-0.25), S(-87.33), S(88.37)}) {
    specials.push_back(t);
    specials.push_back(std::nextafter(t, S(-1e30)));
    specials.push_back(std::nextafter(t, S(1e30)));
  }
  common::Rng rng(18);
  std::vector<S> values;
  for (int shift = 0; shift < 4; ++shift) {
    for (int i = 0; i < shift; ++i) values.push_back(static_cast<S>(rng.normal()));
    values.insert(values.end(), specials.begin(), specials.end());
  }
  for (int i = 0; i < 100000; ++i) values.push_back(static_cast<S>(rng.normal(0.0, 3.0)));
  values.insert(values.end(), specials.begin(), specials.end());
  constexpr std::size_t kCols = 7;
  while (values.size() % kCols != 0 || values.size() % 4 == 0) {
    values.push_back(static_cast<S>(rng.normal()));
  }

  MatrixT<S> X(values.size() / kCols, kCols);
  for (std::size_t i = 0; i < values.size(); ++i) X.data()[i] = values[i];
  for (const Activation kind : {Activation::kIdentity, Activation::kRelu, Activation::kElu,
                                Activation::kTanh, Activation::kSigmoid}) {
    ActivationLayerT<S> layer(kind, kCols);
    const MatrixT<S> Y = layer.forward_batch(X, /*keep_cache=*/false);
    ASSERT_EQ(Y.size(), values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      const S want = activate<S>(kind, values[i]);
      ASSERT_EQ(std::memcmp(&Y.data()[i], &want, sizeof(S)), 0)
          << "kind=" << static_cast<int>(kind) << " i=" << i << " x=" << values[i]
          << " got=" << Y.data()[i] << " want=" << want;
    }
  }
}

TEST(ActivationLayer, SweepBitIdenticalToScalarF64) {
  check_activation_sweep_matches_scalar<double>();
}

TEST(ActivationLayer, SweepBitIdenticalToScalarF32) {
  check_activation_sweep_matches_scalar<float>();
}

TEST(ActivationLayer, BackwardWithoutForwardThrows) {
  ActivationLayer layer(Activation::kElu, 1);
  EXPECT_THROW(backward1(layer, {1.0}), std::logic_error);
}

TEST(Initializers, XavierBoundsRespected) {
  common::Rng rng(1);
  Matrix w(20, 30);
  xavier_uniform(w, rng);
  const double limit = std::sqrt(6.0 / 50.0);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_LE(std::abs(w.data()[i]), limit);
  }
}

TEST(Initializers, HeNormalVarianceRoughlyCorrect) {
  common::Rng rng(2);
  Matrix w(100, 100);
  he_normal(w, rng);
  double sq = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) sq += w.data()[i] * w.data()[i];
  EXPECT_NEAR(sq / static_cast<double>(w.size()), 2.0 / 100.0, 0.005);
}

TEST(Initializers, LstmForgetGateBias) {
  common::Rng rng(3);
  LstmParams p(4, 2);
  init_lstm(p, rng);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(p.b[i], 0.0);        // input gate
  for (std::size_t i = 4; i < 8; ++i) EXPECT_DOUBLE_EQ(p.b[i], 1.0);        // forget gate
  for (std::size_t i = 8; i < 16; ++i) EXPECT_DOUBLE_EQ(p.b[i], 0.0);       // g, o
}

TEST(ParamBlock, CountsAndZeroGrad) {
  DenseParams p(3, 4);
  EXPECT_EQ(p.param_count(), 3u * 4u + 3u);
  p.gW.fill(5.0);
  p.zero_grad();
  EXPECT_DOUBLE_EQ(p.gW(0, 0), 0.0);
}

TEST(ParamBlock, CopyValuesBetweenBlocks) {
  auto a = std::make_shared<DenseParams>(2, 2);
  auto b = std::make_shared<DenseParams>(2, 2);
  a->W.fill(3.0);
  copy_param_values(std::vector<ParamBlockPtr>{a}, std::vector<ParamBlockPtr>{b});
  EXPECT_DOUBLE_EQ(b->W(1, 1), 3.0);
  auto c = std::make_shared<DenseParams>(3, 2);
  EXPECT_THROW(copy_param_values(std::vector<ParamBlockPtr>{a}, std::vector<ParamBlockPtr>{c}),
               std::invalid_argument);
}

}  // namespace
}  // namespace hcrl::nn
