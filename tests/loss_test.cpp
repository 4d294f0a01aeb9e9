#include "src/nn/loss.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace hcrl::nn {
namespace {

TEST(MseLoss, ValueAndGradient) {
  const LossResult r = mse_loss(Vec{1.0, 2.0}, Vec{0.0, 4.0});
  EXPECT_DOUBLE_EQ(r.value, (1.0 + 4.0) / 2.0);
  EXPECT_DOUBLE_EQ(r.grad[0], 2.0 * 1.0 / 2.0);
  EXPECT_DOUBLE_EQ(r.grad[1], 2.0 * -2.0 / 2.0);
}

TEST(MseLoss, ZeroAtTarget) {
  const LossResult r = mse_loss(Vec{3.0}, Vec{3.0});
  EXPECT_DOUBLE_EQ(r.value, 0.0);
  EXPECT_DOUBLE_EQ(r.grad[0], 0.0);
}

TEST(MseLoss, EmptyThrows) { EXPECT_THROW(mse_loss(Vec{}, Vec{}), std::invalid_argument); }

TEST(HuberLoss, QuadraticInsideDelta) {
  const LossResult r = huber_loss(Vec{0.5}, Vec{0.0}, 1.0);
  EXPECT_DOUBLE_EQ(r.value, 0.5 * 0.25);
  EXPECT_DOUBLE_EQ(r.grad[0], 0.5);
}

TEST(HuberLoss, LinearOutsideDelta) {
  const LossResult r = huber_loss(Vec{5.0}, Vec{0.0}, 1.0);
  EXPECT_DOUBLE_EQ(r.value, 1.0 * (5.0 - 0.5));
  EXPECT_DOUBLE_EQ(r.grad[0], 1.0);  // capped
  const LossResult neg = huber_loss(Vec{-5.0}, Vec{0.0}, 1.0);
  EXPECT_DOUBLE_EQ(neg.grad[0], -1.0);
}

TEST(HuberLoss, ContinuousAtDelta) {
  const double delta = 1.0;
  const LossResult inside = huber_loss(Vec{delta - 1e-9}, Vec{0.0}, delta);
  const LossResult outside = huber_loss(Vec{delta + 1e-9}, Vec{0.0}, delta);
  EXPECT_NEAR(inside.value, outside.value, 1e-7);
  EXPECT_NEAR(inside.grad[0], outside.grad[0], 1e-7);
}

TEST(HuberLoss, InvalidDeltaThrows) {
  EXPECT_THROW(huber_loss(Vec{1.0}, Vec{0.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(huber_loss(Vec{1.0}, Vec{0.0}, -1.0), std::invalid_argument);
}

TEST(MaskedHuber, GradientIsCapped) {
  const LossResult r = masked_huber_loss(Vec{0.0, 100.0}, 1, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(r.grad[1], 1.0);
  EXPECT_DOUBLE_EQ(r.grad[0], 0.0);
  const LossResult small = masked_huber_loss(Vec{0.0, 0.25}, 1, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(small.grad[1], 0.25);
}

TEST(MaskedHuber, InvalidArgsThrow) {
  EXPECT_THROW(masked_huber_loss(Vec{1.0}, 2, 0.0), std::invalid_argument);
  EXPECT_THROW(masked_huber_loss(Vec{1.0}, 0, 0.0, -1.0), std::invalid_argument);
}

}  // namespace
}  // namespace hcrl::nn
