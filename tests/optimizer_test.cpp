#include "src/nn/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace hcrl::nn {
namespace {

DenseParamsPtr single_param(double value, double grad) {
  auto p = std::make_shared<DenseParams>(1, 1);
  p->W(0, 0) = value;
  p->gW(0, 0) = grad;
  return p;
}

TEST(ClipGradNorm, NoOpBelowThreshold) {
  auto p = single_param(0.0, 3.0);
  const double norm = clip_grad_norm(std::vector<ParamBlockPtr>{p}, 10.0);
  EXPECT_DOUBLE_EQ(norm, 3.0);
  EXPECT_DOUBLE_EQ(p->gW(0, 0), 3.0);
}

TEST(ClipGradNorm, ScalesAboveThreshold) {
  auto a = single_param(0.0, 3.0);
  auto b = single_param(0.0, 4.0);
  const double norm = clip_grad_norm(std::vector<ParamBlockPtr>{a, b}, 1.0);  // global norm = 5
  EXPECT_DOUBLE_EQ(norm, 5.0);
  EXPECT_NEAR(a->gW(0, 0), 0.6, 1e-12);
  EXPECT_NEAR(b->gW(0, 0), 0.8, 1e-12);
}

TEST(ClipGradNorm, InvalidMaxNormThrows) {
  auto p = single_param(0.0, 1.0);
  EXPECT_THROW(clip_grad_norm(std::vector<ParamBlockPtr>{p}, 0.0), std::invalid_argument);
}

TEST(Adam, FirstStepMovesByLr) {
  // With bias correction, the very first Adam step is ~lr * sign(grad).
  auto p = single_param(1.0, 0.3);
  Adam opt({p}, Adam::Options{.lr = 0.01});
  opt.step();
  EXPECT_NEAR(p->W(0, 0), 1.0 - 0.01, 1e-6);
}

TEST(Adam, StepsCounterIncrements) {
  // The bias correction reads the step count: under a constant gradient the
  // corrected moments stay g and g^2, so each step moves by ~lr. A counter
  // stuck at 1 would make the second step ~1.34 lr.
  auto p = single_param(0.0, 1.0);
  Adam opt({p}, Adam::Options{.lr = 0.01});
  opt.step();
  EXPECT_NEAR(p->W(0, 0), -0.01, 1e-6);
  opt.step();
  EXPECT_NEAR(p->W(0, 0), -0.02, 1e-6);
}

TEST(Adam, InvalidLrThrows) {
  auto p = single_param(0.0, 0.0);
  EXPECT_THROW(Adam({p}, Adam::Options{.lr = 0.0}), std::invalid_argument);
}

TEST(Adam, NullParamThrows) {
  EXPECT_THROW(Adam({nullptr}), std::invalid_argument);
}

TEST(Adam, ConvergesOnQuadratic) {
  // minimize f(w) = (w - 3)^2 by feeding grad = 2(w-3) each step.
  auto p = single_param(-5.0, 0.0);
  Adam opt({p}, Adam::Options{.lr = 0.1});
  for (int i = 0; i < 2000; ++i) {
    p->gW(0, 0) = 2.0 * (p->W(0, 0) - 3.0);
    opt.step();
  }
  EXPECT_NEAR(p->W(0, 0), 3.0, 1e-3);
}

}  // namespace
}  // namespace hcrl::nn
