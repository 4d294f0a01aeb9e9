// Example: the local tier's LSTM workload predictor in isolation.
//
// Generates a bursty per-server arrival stream, trains the LSTM online
// (exactly as the power manager does), and prints predicted vs actual
// inter-arrival times alongside the linear baseline predictors.
//
//   ./workload_prediction [num_arrivals]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <vector>

#include "src/common/config.hpp"
#include "src/common/rng.hpp"
#include "src/core/predictor.hpp"
#include "src/workload/arrival_process.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace hcrl;

  const std::size_t n = argc > 1 ? common::parse_count(argv[1], "num_arrivals", 1) : 3000;

  // A bursty arrival stream similar to what one server sees after the
  // global tier consolidates jobs onto it.
  workload::ArrivalProcessOptions ap;
  ap.base_rate_hz = 1.0 / 120.0;
  ap.burst_multiplier = 6.0;
  ap.mean_burst_s = 400.0;
  ap.mean_calm_s = 2000.0;
  common::Rng rng(99);
  workload::ArrivalProcess process(ap, rng);

  std::vector<double> gaps;
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double next = process.next_after(t);
    gaps.push_back(next - t);
    t = next;
  }

  core::LstmPredictorOptions lstm_opts;  // the paper's 35-step / 30-unit LSTM
  auto lstm = core::make_predictor("lstm", lstm_opts);
  auto last = core::make_predictor("last-value", lstm_opts);
  auto window = core::make_predictor("window", lstm_opts);

  const std::size_t warmup = gaps.size() / 2;
  const std::size_t sample_every = std::max<std::size_t>(1, gaps.size() / 16);
  double err_lstm = 0.0, err_last = 0.0, err_window = 0.0;
  std::size_t scored = 0;
  std::printf("online training on %zu inter-arrivals (first %zu warm-up)...\n", n, warmup);
  std::printf("\nsample predictions in the scored half:\n");
  std::printf("%8s %10s %10s %10s %10s\n", "i", "actual", "lstm", "last", "window");
  for (std::size_t i = 0; i < gaps.size(); ++i) {
    if (i >= warmup) {
      const double pl = lstm->predict(), pv = last->predict(), pw = window->predict();
      err_lstm += std::abs(std::log1p(pl) - std::log1p(gaps[i]));
      err_last += std::abs(std::log1p(pv) - std::log1p(gaps[i]));
      err_window += std::abs(std::log1p(pw) - std::log1p(gaps[i]));
      ++scored;
      if (i % sample_every == 0) {
        std::printf("%8zu %10.1f %10.1f %10.1f %10.1f\n", i, gaps[i], pl, pv, pw);
      }
    }
    lstm->observe(gaps[i]);
    last->observe(gaps[i]);
    window->observe(gaps[i]);
  }

  std::printf("\nmean |log1p error| over %zu scored predictions:\n", scored);
  std::printf("  %-14s %8.4f\n", "lstm", err_lstm / scored);
  std::printf("  %-14s %8.4f\n", "last-value", err_last / scored);
  std::printf("  %-14s %8.4f\n", "window", err_window / scored);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
