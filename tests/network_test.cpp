#include "src/nn/network.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "src/nn/loss.hpp"

namespace hcrl::nn {
namespace {

Network make_mlp(common::Rng& rng) {
  Network net;
  net.add_dense(3, 5, Activation::kTanh, rng);
  net.add_dense(5, 2, Activation::kIdentity, rng);
  return net;
}

// The MSE of the network's inference on one sample (a batch of one).
double loss_at(Network& net, const Vec& x, const Vec& target) {
  return mse_loss_batch(net.predict_batch(Matrix::from_row(x)), Matrix::from_row(target)).value;
}

TEST(Network, DimsAndParamCount) {
  common::Rng rng(1);
  Network net = make_mlp(rng);
  EXPECT_EQ(net.in_dim(), 3u);
  EXPECT_EQ(net.out_dim(), 2u);
  EXPECT_EQ(net.param_count(), (3u * 5 + 5) + (5u * 2 + 2));
}

TEST(Network, DimensionMismatchThrows) {
  common::Rng rng(1);
  Network net;
  net.add_dense(3, 5, Activation::kElu, rng);
  auto bad = std::make_shared<DenseParams>(2, 4);  // expects in=4, have 5
  EXPECT_THROW(net.add(std::make_unique<Dense>(bad)), std::invalid_argument);
  EXPECT_THROW(net.add(nullptr), std::invalid_argument);
}

TEST(Network, EmptyNetworkThrowsOnDims) {
  Network net;
  EXPECT_THROW(net.in_dim(), std::logic_error);
  EXPECT_THROW(net.out_dim(), std::logic_error);
}

TEST(Network, PredictMatchesForward) {
  common::Rng rng(2);
  Network net = make_mlp(rng);
  const Vec x = {0.1, -0.5, 0.8};
  const Vec a = net.forward_batch(Matrix::from_row(x)).row(0);
  const Vec b = net.predict_batch(Matrix::from_row(x)).row(0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

// End-to-end gradient check of the whole backprop stack against central
// finite differences. This is the single most important test of nn/.
TEST(Network, GradientMatchesFiniteDifferences) {
  common::Rng rng(3);
  Network net;
  net.add_dense(4, 6, Activation::kElu, rng);
  net.add_dense(6, 5, Activation::kTanh, rng);
  net.add_dense(5, 3, Activation::kIdentity, rng);

  const Vec x = {0.3, -0.7, 0.2, 0.9};
  const Vec target = {0.5, -0.25, 1.0};

  net.zero_grad();
  const Matrix pred = net.forward_batch(Matrix::from_row(x));
  net.backward_batch(mse_loss_batch(pred, Matrix::from_row(target)).grad);

  auto segs = gather_segments(net.params());
  const double h = 1e-6;
  int checked = 0;
  for (auto& seg : segs) {
    for (std::size_t i = 0; i < seg.n; i += 7) {  // sample every 7th weight
      const double orig = seg.value[i];
      seg.value[i] = orig + h;
      const double up = loss_at(net, x, target);
      seg.value[i] = orig - h;
      const double down = loss_at(net, x, target);
      seg.value[i] = orig;
      const double numerical = (up - down) / (2 * h);
      EXPECT_NEAR(seg.grad[i], numerical, 1e-4) << "param index " << i;
      ++checked;
    }
  }
  EXPECT_GT(checked, 10);
}

TEST(Network, InputGradientMatchesFiniteDifferences) {
  common::Rng rng(4);
  Network net = make_mlp(rng);
  Vec x = {0.2, 0.4, -0.1};
  const Vec target = {1.0, -1.0};

  const Matrix pred = net.forward_batch(Matrix::from_row(x));
  const Vec dx = net.backward_batch(mse_loss_batch(pred, Matrix::from_row(target)).grad).row(0);

  const double h = 1e-6;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double orig = x[i];
    x[i] = orig + h;
    const double up = loss_at(net, x, target);
    x[i] = orig - h;
    const double down = loss_at(net, x, target);
    x[i] = orig;
    EXPECT_NEAR(dx[i], (up - down) / (2 * h), 1e-5);
  }
}

TEST(Network, ZeroGradClearsAllParams) {
  common::Rng rng(5);
  Network net = make_mlp(rng);
  net.forward_batch(Matrix::from_row({1.0, 1.0, 1.0}));
  net.backward_batch(Matrix::from_row({1.0, 1.0}));
  net.zero_grad();
  for (auto& seg : gather_segments(net.params())) {
    for (std::size_t i = 0; i < seg.n; ++i) EXPECT_DOUBLE_EQ(seg.grad[i], 0.0);
  }
}

TEST(Network, SharedDenseAppearsOnceInParamsPerLayer) {
  common::Rng rng(6);
  auto shared = std::make_shared<DenseParams>(3, 3);
  Network net;
  net.add_shared_dense(shared, Activation::kElu);
  net.add_shared_dense(shared, Activation::kIdentity);
  // Two layers share one block: params() lists it twice (by layer), but the
  // underlying storage is the same object.
  const auto params = net.params();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].get(), params[1].get());
}

}  // namespace
}  // namespace hcrl::nn
