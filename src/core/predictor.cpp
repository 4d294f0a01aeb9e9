#include "src/core/predictor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/common/suggest.hpp"
#include "src/nn/init.hpp"
#include "src/nn/layer.hpp"
#include "src/nn/lstm.hpp"
#include "src/nn/optimizer.hpp"
#include "src/telemetry/registry.hpp"

namespace hcrl::core {

WindowPredictor::WindowPredictor(std::size_t window, double prior_s) {
  if (window == 0) throw std::invalid_argument("WindowPredictor: window must be > 0");
  if (prior_s <= 0.0) throw std::invalid_argument("WindowPredictor: prior must be > 0");
  std::size_t n = 1;
  while (n < window) n <<= 1;
  ring_.assign(n, prior_s);
  mask_ = n - 1;
  sum_ = prior_s * static_cast<double>(n);
}

void WindowPredictor::observe(double interarrival_s) {
  if (interarrival_s < 0.0) throw std::invalid_argument("WindowPredictor: negative inter-arrival");
  sum_ -= ring_[next_];
  sum_ += interarrival_s;
  ring_[next_] = interarrival_s;
  next_ = (next_ + 1) & mask_;
}

ArPredictor::ArPredictor(std::size_t order, double prior_s, std::size_t refit_interval,
                         std::size_t history_capacity, double ridge)
    : order_(order),
      prior_(prior_s),
      refit_interval_(refit_interval),
      history_capacity_(history_capacity),
      ridge_(ridge) {
  if (order == 0) throw std::invalid_argument("ArPredictor: order must be > 0");
  if (refit_interval == 0) throw std::invalid_argument("ArPredictor: refit_interval must be > 0");
  if (history_capacity <= order + 1) {
    throw std::invalid_argument("ArPredictor: history_capacity too small");
  }
  if (ridge < 0.0) throw std::invalid_argument("ArPredictor: negative ridge");
}

void ArPredictor::observe(double interarrival_s) {
  if (interarrival_s < 0.0) throw std::invalid_argument("ArPredictor: negative inter-arrival");
  history_.push_back(interarrival_s);
  if (history_.size() > history_capacity_) history_.pop_front();
  if (++since_refit_ >= refit_interval_ && history_.size() > 3 * order_) {
    refit();
    since_refit_ = 0;
  }
}

void ArPredictor::refit() {
  // Solve (X^T X + ridge I) w = X^T y with X rows [1, x_{t-1}..x_{t-p}] by
  // Gaussian elimination; dimensions are tiny (p+1 <= ~9).
  const std::size_t p = order_;
  const std::size_t dim = p + 1;
  std::vector<double> a(dim * dim, 0.0);
  std::vector<double> b(dim, 0.0);
  for (std::size_t t = p; t < history_.size(); ++t) {
    std::vector<double> row(dim);
    row[0] = 1.0;
    for (std::size_t k = 0; k < p; ++k) row[k + 1] = history_[t - 1 - k];
    const double y = history_[t];
    for (std::size_t i = 0; i < dim; ++i) {
      b[i] += row[i] * y;
      for (std::size_t j = 0; j < dim; ++j) a[i * dim + j] += row[i] * row[j];
    }
  }
  for (std::size_t i = 0; i < dim; ++i) a[i * dim + i] += ridge_;

  // Gaussian elimination with partial pivoting.
  std::vector<std::size_t> perm(dim);
  for (std::size_t i = 0; i < dim; ++i) perm[i] = i;
  for (std::size_t col = 0; col < dim; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < dim; ++r) {
      if (std::abs(a[r * dim + col]) > std::abs(a[pivot * dim + col])) pivot = r;
    }
    if (std::abs(a[pivot * dim + col]) < 1e-12) return;  // singular: keep old fit
    if (pivot != col) {
      for (std::size_t j = 0; j < dim; ++j) std::swap(a[col * dim + j], a[pivot * dim + j]);
      std::swap(b[col], b[pivot]);
    }
    for (std::size_t r = col + 1; r < dim; ++r) {
      const double f = a[r * dim + col] / a[col * dim + col];
      for (std::size_t j = col; j < dim; ++j) a[r * dim + j] -= f * a[col * dim + j];
      b[r] -= f * b[col];
    }
  }
  std::vector<double> w(dim);
  for (std::size_t i = dim; i-- > 0;) {
    double acc = b[i];
    for (std::size_t j = i + 1; j < dim; ++j) acc -= a[i * dim + j] * w[j];
    w[i] = acc / a[i * dim + i];
  }
  coef_ = std::move(w);
  fitted_ = true;
}

double ArPredictor::predict() {
  if (!fitted_ || history_.size() < order_) return history_.empty() ? prior_ : history_.back();
  double y = coef_[0];
  for (std::size_t k = 0; k < order_; ++k) {
    y += coef_[k + 1] * history_[history_.size() - 1 - k];
  }
  return std::max(0.0, y);
}

void LstmPredictorOptions::validate() const {
  if (lookback == 0 || hidden_units == 0 || input_hidden == 0) {
    throw std::invalid_argument("LstmPredictor: zero-sized layer");
  }
  // `!(x > 0)` also rejects NaN, which every `<=` comparison lets through.
  if (!(learning_rate > 0.0)) throw std::invalid_argument("LstmPredictor: bad learning rate");
  if (!(grad_clip > 0.0)) throw std::invalid_argument("LstmPredictor: grad_clip must be > 0");
  if (!(norm_scale_s > 0.0) || !(prior_s > 0.0)) {
    throw std::invalid_argument("LstmPredictor: bad scale/prior");
  }
  if (history_capacity <= lookback + 1) {
    throw std::invalid_argument("LstmPredictor: history_capacity too small");
  }
  if (train_interval == 0 || train_windows == 0) {
    throw std::invalid_argument("LstmPredictor: train interval/windows must be > 0");
  }
}

namespace detail {

/// Precision-parameterized NN stack of the LSTM predictor: the input/output
/// dense layers, the LSTM cell and the optimizer. The facade owns the
/// (double-typed) normalized history and hands window positions down here.
/// Every sweep runs at batch 1 on member buffers, through the layers'
/// cache-free batch API, so a window allocates nothing per step.
template <class S>
class LstmNetCore {
 public:
  LstmNetCore(const LstmPredictorOptions& opts, common::Rng& rng)
      : opts_(opts),
        in_(std::make_shared<nn::DenseParamsT<S>>(opts.input_hidden, 1)),
        lstm_(std::make_shared<nn::LstmParamsT<S>>(opts.hidden_units, opts.input_hidden)),
        out_(std::make_shared<nn::DenseParamsT<S>>(1, opts.hidden_units)),
        all_params_{in_.params(), lstm_.params(), out_.params()},
        optimizer_(all_params_, nn::AdamOptions{.lr = opts.learning_rate}),
        raw_(1, 1),
        raws_(opts.lookback, 1),
        dy_(1, 1),
        dhs_(opts.lookback, nn::MatrixT<S>(1, opts.hidden_units)) {
    // Paper §VI-A: input and output hidden layers initialized N(0, 1) with
    // bias 0.1; the LSTM state starts at zero.
    nn::normal_init(in_.params()->W, rng, 0.0, 1.0);
    for (auto& b : in_.params()->b) b = S(0.1);
    nn::init_lstm(*lstm_.params(), rng);
    nn::normal_init(out_.params()->W, rng, 0.0, 1.0);
    for (auto& b : out_.params()->b) b = S(0.1);
  }

  /// Next-value prediction (normalized) from the window ending at `end`.
  double predict(const std::deque<double>& history, std::size_t end) {
    sweep(history, end, /*keep_cache=*/false);
    return static_cast<double>(y_(0, 0));
  }

  /// One supervised BPTT step on the window ending at history position
  /// `end`; returns the squared error in normalized space.
  double train_window(const std::deque<double>& history, std::size_t end) {
    sweep(history, end, /*keep_cache=*/true);
    // The MSE over the single output (its 1/n is 1): value d^2, gradient 2d.
    const S d = y_(0, 0) - static_cast<S>(history[end]);
    const double loss = static_cast<double>(d * d);
    dy_(0, 0) = S(2) * d;

    optimizer_.zero_grad();
    // The loss is attached to the last step's output only (next-value
    // prediction): dL/dh_{T-1} lands in the last dH slot, every earlier
    // slot stays zero, and BPTT carries it back through every cached step.
    // It returns dL/dx of every step, newest first.
    out_.backward_into(lstm_.hidden_batch(), dy_, &dhs_.back());
    const nn::MatrixT<S>& dx = lstm_.backward_batch(dhs_);
    // Input layer over all steps at once, its raw inputs stacked newest
    // first like dx; the raw-input gradient is unused.
    for (std::size_t s = 0; s < opts_.lookback; ++s) {
      raws_(s, 0) = static_cast<S>(history[end - 1 - s]);
    }
    in_.backward_into(raws_, dx, nullptr);
    nn::clip_grad_norm(all_params_, opts_.grad_clip);
    optimizer_.step();
    return loss;
  }

 private:
  /// Runs the `lookback` values before `end` through input layer, LSTM and
  /// output layer at batch 1, leaving the prediction in y_.
  void sweep(const std::deque<double>& history, std::size_t end, bool keep_cache) {
    const std::size_t begin = end - opts_.lookback;
    lstm_.reset();
    for (std::size_t i = 0; i < opts_.lookback; ++i) {
      raw_(0, 0) = static_cast<S>(history[begin + i]);
      in_.forward_into(raw_, x_);
      lstm_.step_batch(x_, keep_cache);
    }
    out_.forward_into(lstm_.hidden_batch(), y_);
  }

  LstmPredictorOptions opts_;
  nn::DenseT<S> in_;    // 1 -> input_hidden
  nn::LstmT<S> lstm_;   // input_hidden -> hidden_units
  nn::DenseT<S> out_;   // hidden_units -> 1
  std::vector<nn::ParamBlockPtrT<S>> all_params_;
  nn::AdamT<S> optimizer_;
  nn::MatrixT<S> raw_, raws_;   // one step's raw input; the window's, newest first
  nn::MatrixT<S> x_, y_;        // one step's input-layer output; the prediction
  nn::MatrixT<S> dy_;           // dL/dy
  std::vector<nn::MatrixT<S>> dhs_;  // dL/dh_t per step: zero but the last
};

template class LstmNetCore<float>;
template class LstmNetCore<double>;

}  // namespace detail

namespace {

/// LSTM work counts, so a traced run's local-tier time divides into a cost
/// per training window and per prediction.
struct PredictorMetrics {
  telemetry::MetricId lstm_train_windows;
  telemetry::MetricId lstm_predictions;

  static const PredictorMetrics& get() {
    static const PredictorMetrics m = [] {
      auto& reg = telemetry::global_registry();
      return PredictorMetrics{
          .lstm_train_windows = reg.counter("core.predictor.lstm_train_windows"),
          .lstm_predictions = reg.counter("core.predictor.lstm_predictions"),
      };
    }();
    return m;
  }
};

}  // namespace

LstmPredictor::LstmPredictor(const LstmPredictorOptions& opts) : opts_(opts), rng_(opts.seed) {
  opts_.validate();
  if (opts_.precision == nn::Precision::kF32) {
    f32_ = std::make_unique<detail::LstmNetCore<float>>(opts_, rng_);
  } else {
    f64_ = std::make_unique<detail::LstmNetCore<double>>(opts_, rng_);
  }
}

LstmPredictor::~LstmPredictor() = default;

double LstmPredictor::normalize(double seconds) const {
  return std::log1p(std::max(0.0, seconds)) / std::log1p(opts_.norm_scale_s);
}

double LstmPredictor::denormalize(double z) const {
  return std::expm1(std::max(0.0, z) * std::log1p(opts_.norm_scale_s));
}

void LstmPredictor::observe(double interarrival_s) {
  if (interarrival_s < 0.0) throw std::invalid_argument("LstmPredictor: negative inter-arrival");
  history_.push_back(normalize(interarrival_s));
  if (history_.size() > opts_.history_capacity) history_.pop_front();
  ++total_observed_;
  if (total_observed_ % opts_.train_interval == 0 && history_.size() > opts_.lookback + 1) {
    train_round();
  }
}

double LstmPredictor::predict() {
  if (history_.size() < opts_.lookback) return opts_.prior_s;
  if (telemetry::enabled()) telemetry::count(PredictorMetrics::get().lstm_predictions);
  const std::size_t end = history_.size();
  return denormalize(f32_ ? f32_->predict(history_, end) : f64_->predict(history_, end));
}

double LstmPredictor::train_window(std::size_t end) {
  if (end >= history_.size() || end < opts_.lookback) {
    throw std::invalid_argument("LstmPredictor::train_window: bad window end");
  }
  if (telemetry::enabled()) telemetry::count(PredictorMetrics::get().lstm_train_windows);
  return f32_ ? f32_->train_window(history_, end) : f64_->train_window(history_, end);
}

void LstmPredictor::train_round() {
  double total = 0.0;
  for (std::size_t w = 0; w < opts_.train_windows; ++w) {
    const auto end = static_cast<std::size_t>(
        rng_.uniform_int(static_cast<std::int64_t>(opts_.lookback),
                         static_cast<std::int64_t>(history_.size()) - 1));
    total += train_window(end);
  }
  last_loss_ = total / static_cast<double>(opts_.train_windows);
}

std::unique_ptr<WorkloadPredictor> make_predictor(const std::string& kind,
                                                  const LstmPredictorOptions& lstm_opts) {
  if (kind == "lstm") return std::make_unique<LstmPredictor>(lstm_opts);
  if (kind == "last-value") return std::make_unique<LastValuePredictor>(lstm_opts.prior_s);
  if (kind == "window") {
    return std::make_unique<WindowPredictor>(lstm_opts.lookback, lstm_opts.prior_s);
  }
  if (kind == "ar") {
    return std::make_unique<ArPredictor>(/*order=*/4, lstm_opts.prior_s);
  }
  if (kind == "sliding-mean") {  // a removed kind: `window` is the same mean
    throw std::invalid_argument(
        "make_predictor: unknown predictor 'sliding-mean' (did you mean 'window'?)");
  }
  throw std::invalid_argument(
      "make_predictor: " + common::unknown_key_message("predictor", kind, predictor_kinds()));
}

std::vector<std::string> predictor_kinds() {
  return {"lstm", "last-value", "window", "ar"};
}

}  // namespace hcrl::core
