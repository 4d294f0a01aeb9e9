#include "src/nn/loss.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "tests/reference_loss.hpp"

namespace hcrl::nn {
namespace {

// Bit equality, so a grad_scale folded in a different order would show.
void expect_same_bits(double got, double want, const char* what) {
  EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0) << what << ": " << got << " vs " << want;
}

TEST(MseLossBatch, ValueAndGradient) {
  // Row 0: d = (1, -2); row 1: d = (0.5, 0).
  const Matrix pred = Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}});
  const Matrix target = Matrix::from_rows({{0.0, 4.0}, {2.5, 4.0}});
  const BatchLossResult r = mse_loss_batch(pred, target);
  EXPECT_DOUBLE_EQ(r.value, (1.0 + 4.0) / 2.0 + 0.25 / 2.0);  // sum of per-row means
  EXPECT_DOUBLE_EQ(r.grad(0, 0), 2.0 * 1.0 / 2.0);
  EXPECT_DOUBLE_EQ(r.grad(0, 1), 2.0 * -2.0 / 2.0);
  EXPECT_DOUBLE_EQ(r.grad(1, 0), 2.0 * 0.5 / 2.0);
  EXPECT_DOUBLE_EQ(r.grad(1, 1), 0.0);
}

TEST(MseLossBatch, ZeroAtTarget) {
  const Matrix x = Matrix::from_rows({{3.0, -1.0}});
  const BatchLossResult r = mse_loss_batch(x, x);
  EXPECT_DOUBLE_EQ(r.value, 0.0);
  EXPECT_DOUBLE_EQ(r.grad(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(r.grad(0, 1), 0.0);
}

// grad_scale multiplies each gradient element after its loss arithmetic:
// row by row, the batched gradient is the per-sample reference's gradient
// scaled afterwards, bit for bit, and the value ignores grad_scale.
TEST(MseLossBatch, GradScaleFoldsLikePerSampleThenScale) {
  const std::vector<Vec> preds = {{0.3, -1.7, 2.2}, {1e-3, 5.0, -0.25}, {0.1, 0.2, 0.3}};
  const std::vector<Vec> targets = {{1.0, 0.0, -1.0}, {0.0, 4.5, 0.75}, {0.7, -0.2, 0.0}};
  const double scale = 1.0 / 3.0;
  const BatchLossResult r =
      mse_loss_batch(Matrix::from_rows(preds), Matrix::from_rows(targets), scale);
  double total = 0.0;
  for (std::size_t b = 0; b < preds.size(); ++b) {
    reference::LossResult ref = reference::mse_loss(preds[b], targets[b]);
    total += ref.value;
    reference::scale_in_place(ref.grad, scale);
    for (std::size_t i = 0; i < ref.grad.size(); ++i) {
      expect_same_bits(r.grad(b, i), ref.grad[i], "mse grad");
    }
  }
  expect_same_bits(r.value, total, "mse value");
}

TEST(MseLossBatch, ShapeMismatchAndEmptyThrow) {
  EXPECT_THROW(mse_loss_batch(Matrix(2, 3), Matrix(3, 2)), std::invalid_argument);
  EXPECT_THROW(mse_loss_batch(Matrix(1, 2), Matrix(1, 3)), std::invalid_argument);
  EXPECT_THROW(mse_loss_batch(Matrix(), Matrix()), std::invalid_argument);
  EXPECT_THROW(mse_loss_batch(Matrix(0, 3), Matrix(0, 3)), std::invalid_argument);
}

TEST(MaskedHuberLossBatch, QuadraticInsideDelta) {
  const Matrix pred = Matrix::from_rows({{7.0, 0.5}});
  const BatchLossResult r = masked_huber_loss_batch(pred, {1}, Vec{0.0}, 1.0);
  EXPECT_DOUBLE_EQ(r.value, 0.5 * 0.25);
  EXPECT_DOUBLE_EQ(r.grad(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(r.grad(0, 0), 0.0);  // only the masked component
}

TEST(MaskedHuberLossBatch, GradientIsCappedAtDelta) {
  const Matrix pred = Matrix::from_rows({{0.0, 100.0}, {-5.0, 0.0}, {0.0, 0.25}});
  const BatchLossResult r =
      masked_huber_loss_batch(pred, {1, 0, 1}, Vec{0.0, 0.0, 0.0}, 1.0);
  EXPECT_DOUBLE_EQ(r.grad(0, 1), 1.0);   // capped
  EXPECT_DOUBLE_EQ(r.grad(1, 0), -1.0);  // capped, sign kept
  EXPECT_DOUBLE_EQ(r.grad(2, 1), 0.25);  // inside delta: the error itself
  EXPECT_DOUBLE_EQ(r.grad(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(r.grad(1, 1), 0.0);
  // Linear outside delta: delta * (|d| - delta / 2) per row.
  EXPECT_DOUBLE_EQ(r.value, (100.0 - 0.5) + (5.0 - 0.5) + 0.5 * 0.0625);

  const BatchLossResult wide = masked_huber_loss_batch(pred, {1, 0, 1}, Vec{0.0, 0.0, 0.0}, 10.0);
  EXPECT_DOUBLE_EQ(wide.grad(0, 1), 10.0);
  EXPECT_DOUBLE_EQ(wide.grad(1, 0), -5.0);
}

TEST(MaskedHuberLossBatch, ContinuousAtDelta) {
  const double delta = 1.0;
  const BatchLossResult inside = masked_huber_loss_batch(Matrix::from_row(Vec{delta - 1e-9}), {0},
                                                         Vec{0.0}, delta);
  const BatchLossResult outside = masked_huber_loss_batch(Matrix::from_row(Vec{delta + 1e-9}),
                                                          {0}, Vec{0.0}, delta);
  EXPECT_NEAR(inside.value, outside.value, 1e-7);
  EXPECT_NEAR(inside.grad(0, 0), outside.grad(0, 0), 1e-7);
}

// The DQN trainer's loss against the per-sample reference it replaced,
// one row at a time with grad_scale folded in, bit for bit.
TEST(MaskedHuberLossBatch, GradScaleFoldsLikePerSampleThenScale) {
  const std::vector<Vec> preds = {{0.3, -1.7, 2.2}, {1e-3, 5.0, -0.25}, {0.1, 0.2, 0.3}};
  const std::vector<std::size_t> index = {2, 1, 0};
  const Vec targets = {0.4, -3.0, 0.1};
  const double scale = 1.0 / 3.0;
  for (const double delta : {1.0, 0.05}) {
    const BatchLossResult r =
        masked_huber_loss_batch(Matrix::from_rows(preds), index, targets, delta, scale);
    double total = 0.0;
    for (std::size_t b = 0; b < preds.size(); ++b) {
      reference::LossResult ref =
          reference::masked_huber_loss(preds[b], index[b], targets[b], delta);
      total += ref.value;
      reference::scale_in_place(ref.grad, scale);
      for (std::size_t i = 0; i < ref.grad.size(); ++i) {
        expect_same_bits(r.grad(b, i), ref.grad[i], "huber grad");
      }
    }
    expect_same_bits(r.value, total, "huber value");
  }
}

TEST(MaskedHuberLossBatch, InvalidArgsThrow) {
  const Matrix pred(2, 3, 0.5);
  // Row-count mismatch: one index and one target per row.
  EXPECT_THROW(masked_huber_loss_batch(pred, {0}, Vec{0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(masked_huber_loss_batch(pred, {0, 1}, Vec{0.0}), std::invalid_argument);
  // Index >= cols.
  EXPECT_THROW(masked_huber_loss_batch(pred, {0, 3}, Vec{0.0, 0.0}), std::invalid_argument);
  // delta <= 0.
  EXPECT_THROW(masked_huber_loss_batch(pred, {0, 1}, Vec{0.0, 0.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(masked_huber_loss_batch(pred, {0, 1}, Vec{0.0, 0.0}, -1.0),
               std::invalid_argument);
  EXPECT_NO_THROW(masked_huber_loss_batch(pred, {0, 2}, Vec{0.0, 0.0}));
}

}  // namespace
}  // namespace hcrl::nn
