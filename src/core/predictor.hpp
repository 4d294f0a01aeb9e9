// Workload predictors for the local tier (§VI-A).
//
// The predictor estimates the next job inter-arrival time at one server;
// its (discretized) output is the state of the RL power manager. The paper
// uses a three-layer LSTM network (input hidden layer, LSTM cell layer with
// 30 hidden units over a 35-step look-back window, output hidden layer)
// trained with Adam. LastValue, Window and Ar reproduce the linear-
// combination predictors of prior work [30, 31] that the paper argues
// against — they are the ablation baselines.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/nn/precision.hpp"

namespace hcrl::core {

class WorkloadPredictor {
 public:
  virtual ~WorkloadPredictor() = default;

  /// Feed one observed inter-arrival time (seconds, > 0).
  virtual void observe(double interarrival_s) = 0;
  /// Predicted next inter-arrival time (seconds). Implementations return a
  /// configurable prior before enough observations accumulate.
  virtual double predict() = 0;
  virtual std::string name() const = 0;
};

/// Predicts the next inter-arrival equals the last one observed.
class LastValuePredictor final : public WorkloadPredictor {
 public:
  explicit LastValuePredictor(double prior_s = 600.0) : value_(prior_s) {}
  void observe(double interarrival_s) override { value_ = interarrival_s; }
  double predict() override { return value_; }
  std::string name() const override { return "last-value"; }

 private:
  double value_;
};

/// Mean of the last `window` observations — the linear predictor whose
/// weakness ("one very long inter-arrival time can ruin a set of subsequent
/// predictions") motivates the LSTM. A rolling sum over a power-of-two ring
/// buffer, the O(1) "length predictor" idiom of production log/replication
/// code (SNIPPETS.md #2/#3). The ring is pre-filled with the prior, so early
/// predictions blend the prior out sample by sample, and observe()/predict()
/// never allocate. Config name: predictor = "window".
class WindowPredictor final : public WorkloadPredictor {
 public:
  /// `window` is rounded up to the next power of two (mask indexing).
  explicit WindowPredictor(std::size_t window = 32, double prior_s = 600.0);
  void observe(double interarrival_s) override;
  double predict() override { return sum_ / static_cast<double>(ring_.size()); }
  std::string name() const override { return "window"; }
  std::size_t window() const noexcept { return ring_.size(); }

 private:
  std::vector<double> ring_;  // size is a power of two
  std::size_t mask_;
  std::size_t next_ = 0;
  double sum_;
};

/// Autoregressive AR(p) predictor fit by online least squares — the
/// "linear combination of previous idle times (or request inter-arrival
/// times)" model of the paper's references [30, 31], §VI-A. Coefficients
/// are refit periodically on the recent history via the normal equations
/// with ridge regularization.
class ArPredictor final : public WorkloadPredictor {
 public:
  ArPredictor(std::size_t order = 4, double prior_s = 600.0, std::size_t refit_interval = 32,
              std::size_t history_capacity = 1024, double ridge = 1e-3);

  void observe(double interarrival_s) override;
  double predict() override;
  std::string name() const override { return "ar"; }

  const std::vector<double>& coefficients() const noexcept { return coef_; }
  bool fitted() const noexcept { return fitted_; }

 private:
  void refit();

  std::size_t order_;
  double prior_;
  std::size_t refit_interval_;
  std::size_t history_capacity_;
  double ridge_;
  std::deque<double> history_;
  std::vector<double> coef_;  // [bias, w_1..w_p], newest lag first
  bool fitted_ = false;
  std::size_t since_refit_ = 0;
};

struct LstmPredictorOptions {
  std::size_t lookback = 35;       // paper: past 35 inter-arrival times
  std::size_t hidden_units = 30;   // paper: 30 hidden units
  std::size_t input_hidden = 1;    // paper: LSTM cell input size 1
  double learning_rate = 1e-3;     // Adam (paper reference [27])
  double grad_clip = 10.0;
  double norm_scale_s = 3600.0;    // inter-arrivals are log-normalized by this
  double prior_s = 600.0;          // prediction before warm-up
  std::size_t history_capacity = 4096;
  std::size_t train_interval = 8;  // train after every N observations
  std::size_t train_windows = 4;   // windows per training round
  std::uint64_t seed = 11;
  /// Scalar type of the LSTM stack (see nn/precision.hpp). The history,
  /// normalization and prediction interface stay double-typed.
  nn::Precision precision = nn::default_precision();

  void validate() const;
};

namespace detail {
template <class S>
class LstmNetCore;
}  // namespace detail

class LstmPredictor final : public WorkloadPredictor {
 public:
  explicit LstmPredictor(const LstmPredictorOptions& opts);
  ~LstmPredictor() override;

  void observe(double interarrival_s) override;
  /// The last `lookback` observations through the network at batch 1; the
  /// prior until that many have arrived.
  double predict() override;
  std::string name() const override { return "lstm"; }

  /// One supervised BPTT step on a window ending at history position `end`
  /// (predicts history[end] from the `lookback` values before it).
  /// Returns the squared error. Exposed for tests and offline pretraining.
  double train_window(std::size_t end);

  std::size_t observations() const noexcept { return total_observed_; }
  double last_training_loss() const noexcept { return last_loss_; }
  const LstmPredictorOptions& options() const noexcept { return opts_; }

  // Normalization helpers (exposed for tests).
  double normalize(double seconds) const;
  double denormalize(double z) const;

 private:
  void train_round();

  LstmPredictorOptions opts_;
  common::Rng rng_;
  // Exactly one core is non-null, matching opts_.precision: the NN stack
  // (input layer, LSTM cell, output layer, optimizer) at that Scalar type.
  std::unique_ptr<detail::LstmNetCore<float>> f32_;
  std::unique_ptr<detail::LstmNetCore<double>> f64_;
  std::deque<double> history_;  // normalized values
  std::size_t total_observed_ = 0;
  double last_loss_ = -1.0;
};

/// Factory used by configs ("lstm", "last-value", "window", "ar"). Unknown
/// kinds throw with a did-you-mean suggestion over predictor_kinds().
std::unique_ptr<WorkloadPredictor> make_predictor(const std::string& kind,
                                                  const LstmPredictorOptions& lstm_opts);

/// Every kind make_predictor accepts, in listing order.
std::vector<std::string> predictor_kinds();

}  // namespace hcrl::core
