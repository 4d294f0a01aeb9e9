#include "src/core/predictor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <numbers>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "src/nn/fastmath.hpp"
#include "src/nn/init.hpp"
#include "src/nn/optimizer.hpp"

namespace hcrl::core {
namespace {

// Scalar reference of LstmPredictor's network: input layer (1 -> input_hidden),
// LSTM cell, output layer (hidden -> 1), Adam. It draws its three parameter
// blocks exactly as the predictor does and spells out the operation order
// the predictor's results are pinned to, with no nn::LstmT or GEMM call:
//  - a dense or gate pre-activation is the bias, plus each input's k-sum
//    started from 0 and taken in increasing k (x·Wx first, then h·Wh);
//  - a backward input gradient (dL/dx, dL/dh_{t-1}) is likewise a k-sum
//    started from 0 in increasing k;
//  - BPTT walks steps T-1..0; every parameter gradient, the input layer's
//    included, adds its per-step term (0 + product) in that step order.
template <class S>
class ReferenceLstmNet {
 public:
  explicit ReferenceLstmNet(const LstmPredictorOptions& o)
      : L_(o.lookback), H_(o.hidden_units), ih_(o.input_hidden), clip_(o.grad_clip) {
    common::Rng rng(o.seed);
    in_ = std::make_shared<nn::DenseParamsT<S>>(ih_, 1);
    nn::normal_init(in_->W, rng, 0.0, 1.0);
    for (auto& b : in_->b) b = S(0.1);
    lstm_ = std::make_shared<nn::LstmParamsT<S>>(H_, ih_);
    nn::init_lstm(*lstm_, rng);
    out_ = std::make_shared<nn::DenseParamsT<S>>(1, H_);
    nn::normal_init(out_->W, rng, 0.0, 1.0);
    for (auto& b : out_->b) b = S(0.1);
    params_ = {in_, lstm_, out_};
    adam_ = std::make_unique<nn::AdamT<S>>(params_, nn::AdamOptions{.lr = o.learning_rate});
  }

  /// Normalized next-value prediction for the window ending at `end`.
  double predict(const std::vector<double>& hist, std::size_t end) {
    forward(hist, end);
    return static_cast<double>(output());
  }

  /// One BPTT + Adam step on the window ending at `end`; the squared error.
  double train_window(const std::vector<double>& hist, std::size_t end) {
    forward(hist, end);
    const S d = output() - static_cast<S>(hist[end]);
    const S inv_n = S(1) / S(1);  // the MSE over one output
    const double loss = static_cast<double>(d * d * inv_n);
    const S gy = S(2) * d * inv_n;
    adam_->zero_grad();

    // Output layer.
    const std::vector<S>& h_last = steps_.back().h;
    std::vector<S> dh(H_);
    for (std::size_t k = 0; k < H_; ++k) {
      out_->gW(0, k) += S(0) + gy * h_last[k];
      dh[k] = S(0) + gy * out_->W(0, k);
    }
    out_->gb[0] += gy;

    // LSTM cell, newest step first.
    std::vector<S> dh_next(H_, S(0)), dc_next(H_, S(0)), dz(4 * H_);
    std::vector<std::vector<S>> dx(L_, std::vector<S>(ih_));
    for (std::size_t t = L_; t-- > 0;) {
      const Step& s = steps_[t];
      for (std::size_t j = 0; j < H_; ++j) {
        const S dht = (t + 1 == L_ ? dh[j] : S(0)) + dh_next[j];
        const S d_o = dht * s.tc[j];
        const S dc = dht * s.o[j] * (S(1) - s.tc[j] * s.tc[j]) + dc_next[j];
        const S di = dc * s.g[j];
        const S df = dc * s.c_prev[j];
        const S dg = dc * s.i[j];
        dz[j] = di * s.i[j] * (S(1) - s.i[j]);
        dz[H_ + j] = df * s.f[j] * (S(1) - s.f[j]);
        dz[2 * H_ + j] = dg * (S(1) - s.g[j] * s.g[j]);
        dz[3 * H_ + j] = d_o * s.o[j] * (S(1) - s.o[j]);
        dc_next[j] = dc * s.f[j];
      }
      for (std::size_t r = 0; r < 4 * H_; ++r) {
        for (std::size_t k = 0; k < ih_; ++k) lstm_->gWx(r, k) += S(0) + dz[r] * s.x[k];
        for (std::size_t k = 0; k < H_; ++k) lstm_->gWh(r, k) += S(0) + dz[r] * s.h_prev[k];
        lstm_->gb[r] += dz[r];
      }
      for (std::size_t k = 0; k < ih_; ++k) {
        S acc = S(0);
        for (std::size_t r = 0; r < 4 * H_; ++r) acc += dz[r] * lstm_->Wx(r, k);
        dx[t][k] = acc;
      }
      for (std::size_t k = 0; k < H_; ++k) {
        S acc = S(0);
        for (std::size_t r = 0; r < 4 * H_; ++r) acc += dz[r] * lstm_->Wh(r, k);
        dh_next[k] = acc;
      }
    }

    // Input layer, newest step first.
    for (std::size_t t = L_; t-- > 0;) {
      for (std::size_t j = 0; j < ih_; ++j) {
        in_->gW(j, 0) += S(0) + dx[t][j] * steps_[t].raw;
        in_->gb[j] += dx[t][j];
      }
    }
    nn::clip_grad_norm(params_, clip_);
    adam_->step();
    return loss;
  }

 private:
  struct Step {
    S raw;
    std::vector<S> x, h_prev, c_prev, i, f, g, o, tc, h;
  };

  static S sigmoid(S v) { return nn::fastmath::sigmoid_s(v); }
  static S tanh_(S v) { return nn::fastmath::tanh_s(v); }

  void forward(const std::vector<double>& hist, std::size_t end) {
    steps_.assign(L_, Step{});
    std::vector<S> h(H_, S(0)), c(H_, S(0));
    for (std::size_t t = 0; t < L_; ++t) {
      Step& s = steps_[t];
      s.raw = static_cast<S>(hist[end - L_ + t]);
      s.x.resize(ih_);
      for (std::size_t j = 0; j < ih_; ++j) s.x[j] = in_->b[j] + (S(0) + s.raw * in_->W(j, 0));
      s.h_prev = h;
      s.c_prev = c;
      for (auto* v : {&s.i, &s.f, &s.g, &s.o, &s.tc}) v->resize(H_);
      std::vector<S> z(4 * H_);
      for (std::size_t r = 0; r < 4 * H_; ++r) {
        S zx = S(0);
        for (std::size_t k = 0; k < ih_; ++k) zx += s.x[k] * lstm_->Wx(r, k);
        S zh = S(0);
        for (std::size_t k = 0; k < H_; ++k) zh += h[k] * lstm_->Wh(r, k);
        z[r] = (lstm_->b[r] + zx) + zh;
      }
      for (std::size_t j = 0; j < H_; ++j) {
        s.i[j] = sigmoid(z[j]);
        s.f[j] = sigmoid(z[H_ + j]);
        s.g[j] = tanh_(z[2 * H_ + j]);
        s.o[j] = sigmoid(z[3 * H_ + j]);
        c[j] = s.f[j] * c[j] + s.i[j] * s.g[j];
        s.tc[j] = tanh_(c[j]);
        h[j] = s.o[j] * s.tc[j];
      }
      s.h = h;
    }
  }

  S output() const {
    const std::vector<S>& h = steps_.back().h;
    S acc = S(0);
    for (std::size_t k = 0; k < H_; ++k) acc += h[k] * out_->W(0, k);
    return out_->b[0] + acc;
  }

  std::size_t L_, H_, ih_;
  double clip_;
  nn::DenseParamsPtrT<S> in_, out_;
  nn::LstmParamsPtrT<S> lstm_;
  std::vector<nn::ParamBlockPtrT<S>> params_;
  std::unique_ptr<nn::AdamT<S>> adam_;
  std::vector<Step> steps_;
};

// Drives LstmPredictor and the reference side by side: `windows` rounds of
// observe one value, train one random window, predict; every loss and every
// prediction must match bit for bit.
template <class S>
void expect_predictor_matches_reference(LstmPredictorOptions o, std::size_t windows) {
  o.precision = std::is_same_v<S, float> ? nn::Precision::kF32 : nn::Precision::kF64;
  o.train_interval = std::numeric_limits<std::size_t>::max();  // train only when told to
  LstmPredictor p(o);
  ReferenceLstmNet<S> ref(o);
  std::vector<double> hist;
  common::Rng data(o.seed * 7 + 1);
  auto observe = [&] {
    const double gap = data.exponential(1.0 / 120.0);
    p.observe(gap);
    hist.push_back(p.normalize(gap));
  };
  for (std::size_t i = 0; i < o.lookback + 16; ++i) observe();
  for (std::size_t w = 0; w < windows; ++w) {
    observe();
    const auto end = static_cast<std::size_t>(data.uniform_int(
        static_cast<std::int64_t>(o.lookback), static_cast<std::int64_t>(hist.size()) - 1));
    ASSERT_EQ(p.train_window(end), ref.train_window(hist, end)) << "window " << w;
    ASSERT_EQ(p.predict(), p.denormalize(ref.predict(hist, hist.size()))) << "window " << w;
  }
}

TEST(LstmPredictorOracle, MatchesScalarReferenceF64) {
  expect_predictor_matches_reference<double>(LstmPredictorOptions{}, 60);
}

TEST(LstmPredictorOracle, MatchesScalarReferenceF32) {
  expect_predictor_matches_reference<float>(LstmPredictorOptions{}, 60);
}

TEST(LstmPredictorOracle, MatchesScalarReferenceOddShape) {
  // A hidden width that is no multiple of any vector tile and whose 4H = 200
  // gate sums run past the GEMM's k panel at f64, and an input layer of 3.
  LstmPredictorOptions o;
  o.lookback = 6;
  o.hidden_units = 50;
  o.input_hidden = 3;
  o.seed = 5;
  expect_predictor_matches_reference<double>(o, 50);
  expect_predictor_matches_reference<float>(o, 50);
}

TEST(LastValuePredictor, ReturnsPriorThenLast) {
  LastValuePredictor p(600.0);
  EXPECT_DOUBLE_EQ(p.predict(), 600.0);
  p.observe(42.0);
  EXPECT_DOUBLE_EQ(p.predict(), 42.0);
  p.observe(7.0);
  EXPECT_DOUBLE_EQ(p.predict(), 7.0);
}

TEST(WindowPredictor, OutlierSensitivityMotivatesLstm) {
  // The paper's §VI-A argument: one very long inter-arrival ruins a set of
  // subsequent linear predictions.
  WindowPredictor p(5, 10.0);
  for (int i = 0; i < 5; ++i) p.observe(10.0);
  p.observe(10000.0);
  EXPECT_GT(p.predict(), 1000.0);  // wildly off for the next few predictions
}

TEST(LstmPredictorOptions, Validation) {
  LstmPredictorOptions o;
  EXPECT_NO_THROW(o.validate());
  o.lookback = 0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = LstmPredictorOptions{};
  o.history_capacity = o.lookback;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = LstmPredictorOptions{};
  o.norm_scale_s = 0.0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  // grad_clip <= 0 used to construct and then throw from clip_grad_norm on
  // the first training round; NaN passed every `<= 0` check.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {0.0, -1.0, nan}) {
    o = LstmPredictorOptions{};
    o.grad_clip = bad;
    EXPECT_THROW(o.validate(), std::invalid_argument) << "grad_clip " << bad;
    EXPECT_THROW(LstmPredictor{o}, std::invalid_argument) << "grad_clip " << bad;
  }
  o = LstmPredictorOptions{};
  o.learning_rate = nan;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = LstmPredictorOptions{};
  o.norm_scale_s = nan;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = LstmPredictorOptions{};
  o.prior_s = nan;
  EXPECT_THROW(o.validate(), std::invalid_argument);
}

TEST(LstmPredictor, NormalizeDenormalizeRoundTrip) {
  LstmPredictorOptions o;
  LstmPredictor p(o);
  for (double x : {0.0, 1.0, 30.0, 600.0, 3600.0, 20000.0}) {
    EXPECT_NEAR(p.denormalize(p.normalize(x)), x, 1e-6 * std::max(1.0, x));
  }
}

TEST(LstmPredictor, PriorBeforeWarmup) {
  LstmPredictorOptions o;
  o.prior_s = 123.0;
  LstmPredictor p(o);
  EXPECT_DOUBLE_EQ(p.predict(), 123.0);
  p.observe(10.0);
  EXPECT_DOUBLE_EQ(p.predict(), 123.0);  // still fewer than lookback samples
}

TEST(LstmPredictor, RejectsNegativeInterArrival) {
  LstmPredictor p(LstmPredictorOptions{});
  EXPECT_THROW(p.observe(-1.0), std::invalid_argument);
}

TEST(LstmPredictor, PredictionIsFiniteAndNonNegative) {
  LstmPredictorOptions o;
  o.lookback = 10;
  LstmPredictor p(o);
  common::Rng rng(3);
  for (int i = 0; i < 100; ++i) p.observe(rng.exponential(1.0 / 60.0));
  const double pred = p.predict();
  EXPECT_TRUE(std::isfinite(pred));
  EXPECT_GE(pred, 0.0);
}

TEST(LstmPredictor, LearnsAlternatingPattern) {
  // Inter-arrivals alternate 30, 300, 30, 300, ... A linear window-mean
  // predictor is stuck at ~165 for every step; the LSTM should learn to
  // discriminate the two phases. We check training loss decreases strongly.
  LstmPredictorOptions o;
  o.lookback = 8;
  o.hidden_units = 12;
  o.train_interval = 1;
  o.train_windows = 2;
  o.learning_rate = 5e-3;
  LstmPredictor p(o);
  double early_loss = 0.0;
  int early_count = 0;
  for (int i = 0; i < 60; ++i) {
    p.observe(i % 2 == 0 ? 30.0 : 300.0);
    if (i >= 20 && i < 40 && p.last_training_loss() >= 0.0) {
      early_loss += p.last_training_loss();
      ++early_count;
    }
  }
  double late_loss = 0.0;
  int late_count = 0;
  for (int i = 60; i < 400; ++i) {
    p.observe(i % 2 == 0 ? 30.0 : 300.0);
    if (i >= 360) {
      late_loss += p.last_training_loss();
      ++late_count;
    }
  }
  ASSERT_GT(early_count, 0);
  ASSERT_GT(late_count, 0);
  EXPECT_LT(late_loss / late_count, 0.5 * early_loss / early_count);
}

TEST(LstmPredictor, AccuracyBeatsWindowMeanOnPeriodicSignal) {
  // Downstream ablation (paper argument): LSTM vs the linear baseline on a
  // deterministic periodic inter-arrival pattern.
  LstmPredictorOptions o;
  o.lookback = 12;
  o.hidden_units = 16;
  o.train_interval = 1;
  o.train_windows = 3;
  o.learning_rate = 5e-3;
  LstmPredictor lstm(o);
  WindowPredictor mean(12, 100.0);

  auto signal = [](int i) { return i % 3 == 2 ? 600.0 : 60.0; };
  // Warm up both predictors.
  for (int i = 0; i < 900; ++i) {
    lstm.observe(signal(i));
    mean.observe(signal(i));
  }
  double lstm_err = 0.0, mean_err = 0.0;
  for (int i = 900; i < 960; ++i) {
    const double target = signal(i);
    lstm_err += std::abs(lstm.predict() - target);
    mean_err += std::abs(mean.predict() - target);
    lstm.observe(target);
    mean.observe(target);
  }
  EXPECT_LT(lstm_err, mean_err);
}

TEST(LstmPredictor, TrainWindowValidation) {
  LstmPredictorOptions o;
  o.lookback = 5;
  LstmPredictor p(o);
  for (int i = 0; i < 10; ++i) p.observe(10.0);
  EXPECT_THROW(p.train_window(3), std::invalid_argument);    // < lookback
  EXPECT_THROW(p.train_window(100), std::invalid_argument);  // past history
  EXPECT_GE(p.train_window(7), 0.0);
}

TEST(MakePredictor, FactoryDispatch) {
  LstmPredictorOptions o;
  EXPECT_EQ(make_predictor("lstm", o)->name(), "lstm");
  EXPECT_EQ(make_predictor("last-value", o)->name(), "last-value");
  EXPECT_EQ(make_predictor("window", o)->name(), "window");
  EXPECT_EQ(make_predictor("ar", o)->name(), "ar");
  EXPECT_THROW(make_predictor("nope", o), std::invalid_argument);
}

TEST(ArPredictor, ConstructionValidation) {
  EXPECT_THROW(ArPredictor(0), std::invalid_argument);
  EXPECT_THROW(ArPredictor(4, 600.0, 0), std::invalid_argument);
  EXPECT_THROW(ArPredictor(4, 600.0, 32, 5), std::invalid_argument);
  EXPECT_THROW(ArPredictor(4, 600.0, 32, 1024, -1.0), std::invalid_argument);
}

TEST(ArPredictor, FallsBackBeforeFitting) {
  ArPredictor p(4, 123.0);
  EXPECT_DOUBLE_EQ(p.predict(), 123.0);
  p.observe(50.0);
  EXPECT_DOUBLE_EQ(p.predict(), 50.0);  // last value until first refit
  EXPECT_FALSE(p.fitted());
}

TEST(ArPredictor, RecoversExactArOneProcess) {
  // x_t = 0.5 x_{t-1} + 20 exactly: after fitting, predictions must be
  // near-exact and coefficients close to the generating ones.
  ArPredictor p(2, 100.0, /*refit_interval=*/16);
  double x = 40.0;
  for (int i = 0; i < 400; ++i) {
    p.observe(x);
    x = 0.5 * x + 20.0;
  }
  ASSERT_TRUE(p.fitted());
  const double expected_next = 0.5 * x + 20.0;
  (void)expected_next;
  p.observe(x);
  EXPECT_NEAR(p.predict(), 0.5 * x + 20.0, 1.0);
}

TEST(ArPredictor, LearnsAlternatingPattern) {
  // 30, 300, 30, 300...: an AR(2) model captures this exactly
  // (x_t = x_{t-2}), unlike the window mean.
  ArPredictor ar(2, 100.0, 8);
  WindowPredictor mean(8, 100.0);
  for (int i = 0; i < 300; ++i) {
    const double v = i % 2 == 0 ? 30.0 : 300.0;
    ar.observe(v);
    mean.observe(v);
  }
  // Next value is 30 (i=300 even).
  EXPECT_NEAR(ar.predict(), 30.0, 5.0);
  EXPECT_NEAR(mean.predict(), 165.0, 5.0);  // the linear-mean failure mode
}

TEST(ArPredictor, RejectsNegativeObservation) {
  ArPredictor p(2);
  EXPECT_THROW(p.observe(-1.0), std::invalid_argument);
}

TEST(ArPredictor, PredictionsNeverNegative) {
  ArPredictor p(3, 10.0, 8);
  common::Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    p.observe(rng.exponential(0.1));
    EXPECT_GE(p.predict(), 0.0);
  }
}

TEST(WindowPredictor, RoundsWindowUpToPowerOfTwoAndStartsAtPrior) {
  WindowPredictor p(/*window=*/5, /*prior_s=*/100.0);
  EXPECT_EQ(p.window(), 8u);  // 5 -> 8
  EXPECT_DOUBLE_EQ(p.predict(), 100.0);
  EXPECT_EQ(p.name(), "window");
}

TEST(WindowPredictor, BlendsPriorOutSampleBySample) {
  WindowPredictor p(/*window=*/4, /*prior_s=*/40.0);
  p.observe(80.0);
  // Ring now holds {80, 40, 40, 40}.
  EXPECT_DOUBLE_EQ(p.predict(), (80.0 + 3 * 40.0) / 4.0);
}

TEST(WindowPredictor, MatchesBruteForceMeanOfLastWindow) {
  const std::size_t window = 8;
  WindowPredictor p(window, /*prior_s=*/10.0);
  common::Rng rng(99);
  std::vector<double> seen;
  for (int i = 0; i < 100; ++i) {
    const double v = rng.uniform() * 500.0;
    p.observe(v);
    seen.push_back(v);
    if (seen.size() >= window) {
      double sum = 0.0;
      for (std::size_t j = seen.size() - window; j < seen.size(); ++j) sum += seen[j];
      EXPECT_NEAR(p.predict(), sum / static_cast<double>(window), 1e-9);
    }
  }
}

TEST(WindowPredictor, Validation) {
  EXPECT_THROW(WindowPredictor(0, 10.0), std::invalid_argument);
  EXPECT_THROW(WindowPredictor(4, 0.0), std::invalid_argument);
  WindowPredictor p(4, 10.0);
  EXPECT_THROW(p.observe(-1.0), std::invalid_argument);
}

TEST(WindowPredictor, FactoryBuildsItFromLookback) {
  LstmPredictorOptions opts;
  opts.lookback = 5;
  opts.prior_s = 33.0;
  const auto p = make_predictor("window", opts);
  EXPECT_EQ(p->name(), "window");
  EXPECT_DOUBLE_EQ(p->predict(), 33.0);
}

}  // namespace
}  // namespace hcrl::core
