#include "src/nn/lstm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "src/common/rng.hpp"
#include "src/nn/init.hpp"
#include "src/nn/layer.hpp"
#include "src/nn/loss.hpp"
#include "src/nn/optimizer.hpp"

namespace hcrl::nn {
namespace {

LstmParamsPtr make_params(std::size_t hidden, std::size_t in, std::uint64_t seed) {
  auto p = std::make_shared<LstmParams>(hidden, in);
  common::Rng rng(seed);
  init_lstm(*p, rng);
  return p;
}

// One step of one sequence (a batch of one); returns h_t and caches the step.
Vec step1(Lstm& lstm, const Vec& x) { return lstm.step_batch(Matrix::from_row(x)).row(0); }

// Reset, then run one sequence through the cell; returns h_t of every step.
std::vector<Vec> run_sequence(Lstm& lstm, const std::vector<Vec>& xs) {
  lstm.reset();
  std::vector<Vec> hs;
  for (const Vec& x : xs) hs.push_back(step1(lstm, x));
  return hs;
}

TEST(Lstm, ShapesAndReset) {
  Lstm lstm(make_params(4, 2, 1));
  EXPECT_EQ(lstm.hidden_dim(), 4u);
  EXPECT_EQ(lstm.in_dim(), 2u);
  const Vec first = step1(lstm, {0.5, -0.5});
  EXPECT_EQ(first.size(), 4u);
  step1(lstm, {0.5, -0.5});
  // Two cached steps: a backward with one dH is rejected.
  EXPECT_THROW(lstm.backward_batch(std::vector<Matrix>(1, Matrix(1, 4))), std::invalid_argument);
  lstm.reset();
  // No cached steps, zero hidden state...
  EXPECT_EQ(lstm.backward_batch({}).rows(), 0u);
  for (double v : lstm.hidden_batch().row(0)) EXPECT_DOUBLE_EQ(v, 0.0);
  // ...and zero cell state: the first step repeats bit for bit.
  EXPECT_EQ(step1(lstm, {0.5, -0.5}), first);
}

TEST(Lstm, OutputsBoundedByGateAlgebra) {
  // h = o * tanh(c): |h| < 1 whenever |tanh(c)| < 1, and o in (0,1).
  Lstm lstm(make_params(8, 1, 2));
  for (int t = 0; t < 50; ++t) {
    const Vec h = step1(lstm, {std::sin(0.3 * t) * 5.0});
    for (double v : h) EXPECT_LT(std::abs(v), 1.0);
  }
}

TEST(Lstm, DeterministicGivenParams) {
  auto p = make_params(3, 1, 3);
  Lstm a(p), b(p);
  for (int t = 0; t < 10; ++t) {
    const Vec ha = step1(a, {0.1 * t});
    const Vec hb = step1(b, {0.1 * t});
    for (std::size_t i = 0; i < ha.size(); ++i) EXPECT_DOUBLE_EQ(ha[i], hb[i]);
  }
}

TEST(Lstm, ForwardRunsWholeSequence) {
  Lstm lstm(make_params(3, 1, 4));
  std::vector<Vec> xs = {{0.1}, {0.2}, {0.3}};
  const auto hs = run_sequence(lstm, xs);
  EXPECT_EQ(hs.size(), 3u);
  // Every step is cached: BPTT takes exactly three dH and returns three dX rows.
  EXPECT_EQ(lstm.backward_batch(std::vector<Matrix>(3, Matrix(1, 3))).rows(), 3u);
}

TEST(Lstm, BackwardSizeMismatchThrows) {
  Lstm lstm(make_params(3, 1, 5));
  step1(lstm, {0.5});
  EXPECT_THROW(lstm.backward_batch(std::vector<Matrix>(2, Matrix(1, 3))), std::invalid_argument);
}

TEST(Lstm, NullParamsThrows) { EXPECT_THROW(Lstm(nullptr), std::invalid_argument); }

// BPTT gradient check against central finite differences, loss on the last
// hidden state only — exactly the predictor's training configuration.
TEST(Lstm, GradientMatchesFiniteDifferences) {
  auto params = make_params(3, 2, 6);
  Lstm lstm(params);
  const std::vector<Vec> xs = {{0.5, -0.2}, {0.1, 0.9}, {-0.7, 0.3}, {0.2, 0.2}};
  const Matrix target = Matrix::from_row({0.3, -0.1, 0.2});

  auto loss_of = [&]() {
    const auto hs = run_sequence(lstm, xs);
    const double v = mse_loss_batch(Matrix::from_row(hs.back()), target).value;
    lstm.reset();
    return v;
  };

  // Analytic gradients.
  params->zero_grad();
  run_sequence(lstm, xs);
  std::vector<Matrix> dh(xs.size(), Matrix(1, 3, 0.0));
  dh.back() = mse_loss_batch(lstm.hidden_batch(), target).grad;
  lstm.backward_batch(dh);

  std::vector<ParamSegment> segs;
  params->append_segments(segs);
  const double h = 1e-6;
  int checked = 0;
  for (auto& seg : segs) {
    for (std::size_t i = 0; i < seg.n; i += 5) {
      const double orig = seg.value[i];
      seg.value[i] = orig + h;
      const double up = loss_of();
      seg.value[i] = orig - h;
      const double down = loss_of();
      seg.value[i] = orig;
      EXPECT_NEAR(seg.grad[i], (up - down) / (2 * h), 2e-5) << "index " << i;
      ++checked;
    }
  }
  EXPECT_GT(checked, 10);
}

TEST(Lstm, InputGradientsReturned) {
  auto params = make_params(2, 1, 7);
  Lstm lstm(params);
  run_sequence(lstm, {{0.4}, {0.6}});
  const Matrix& dx =
      lstm.backward_batch({Matrix::from_row({0.0, 0.0}), Matrix::from_row({1.0, 1.0})});
  ASSERT_EQ(dx.rows(), 2u);  // newest step first
  EXPECT_EQ(dx.cols(), 1u);
  // Gradient through time must reach the first input.
  EXPECT_NE(dx(1, 0), 0.0);
}

TEST(Lstm, LearnsToPredictSineNextValue) {
  // Train in=1, hidden=8 LSTM + linear readout to predict the next sample of
  // a sine wave from the previous 10. Loss must drop by a large factor.
  const std::size_t lookback = 10, hidden = 8;
  auto lstm_params = make_params(hidden, 1, 8);
  auto out_params = std::make_shared<DenseParams>(1, hidden);
  common::Rng rng(9);
  init_dense(*out_params, rng);
  Lstm lstm(lstm_params);
  Dense out(out_params);
  Adam opt({lstm_params, out_params}, Adam::Options{.lr = 5e-3});

  auto sample = [](int t) { return std::sin(2.0 * std::numbers::pi * t / 25.0); };

  double first_loss = 0.0, last_loss = 0.0;
  const int iters = 400;
  for (int it = 0; it < iters; ++it) {
    const int start = it % 100;
    std::vector<Vec> xs;
    for (std::size_t k = 0; k < lookback; ++k) xs.push_back({sample(start + static_cast<int>(k))});
    const double target = sample(start + static_cast<int>(lookback));

    opt.zero_grad();
    run_sequence(lstm, xs);
    const Matrix pred = out.forward_batch(lstm.hidden_batch());
    const BatchLossResult loss = mse_loss_batch(pred, Matrix::from_row({target}));
    std::vector<Matrix> dh_list(lookback, Matrix(1, hidden, 0.0));
    dh_list.back() = out.backward_batch(loss.grad);
    lstm.backward_batch(dh_list);
    clip_grad_norm(std::vector<ParamBlockPtr>{lstm_params, out_params}, 10.0);
    opt.step();

    if (it < 20) first_loss += loss.value;
    if (it >= iters - 20) last_loss += loss.value;
  }
  EXPECT_LT(last_loss, first_loss * 0.2) << "first=" << first_loss << " last=" << last_loss;
}

}  // namespace
}  // namespace hcrl::nn
