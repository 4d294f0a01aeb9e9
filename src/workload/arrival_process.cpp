#include "src/workload/arrival_process.hpp"

// Before any standard headers: on an old toolchain <numbers> may not even
// exist, and the include error would otherwise mask this actionable message.
#if __cplusplus < 202002L
#error "hcrl requires C++20 (std::numbers). Configure with -DCMAKE_CXX_STANDARD=20 or use the repo's CMakeLists.txt, which pins cxx_std_20."
#endif

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace hcrl::workload {

void ArrivalProcessOptions::validate() const {
  if (!(diurnal_amplitude >= 0.0 && diurnal_amplitude < 1.0)) {
    throw std::invalid_argument("ArrivalProcess: diurnal_amplitude out of [0,1)");
  }
  if (!(diurnal_period_s > 0.0 && std::isfinite(diurnal_period_s)) ||
      !std::isfinite(diurnal_phase)) {
    throw std::invalid_argument("ArrivalProcess: bad diurnal period or phase");
  }
  if (!(burst_multiplier >= 1.0 && std::isfinite(burst_multiplier))) {
    throw std::invalid_argument("ArrivalProcess: burst_multiplier must be finite and >= 1");
  }
  if (!(mean_burst_s > 0.0 && std::isfinite(mean_burst_s)) ||
      !(mean_calm_s > 0.0 && std::isfinite(mean_calm_s))) {
    throw std::invalid_argument("ArrivalProcess: burst/calm means must be finite and > 0");
  }
  if (!(base_rate_hz > 0.0 && std::isfinite(base_rate_hz))) {
    throw std::invalid_argument("ArrivalProcess: base_rate_hz must be finite and > 0");
  }
}

double ArrivalProcessOptions::effective_rate() const {
  const double duty = mean_burst_s / (mean_burst_s + mean_calm_s);
  return base_rate_hz * (1.0 + duty * (burst_multiplier - 1.0));
}

ArrivalProcess::ArrivalProcess(const ArrivalProcessOptions& opts, common::Rng rng)
    : opts_(opts), rng_(rng) {
  opts_.validate();
  lambda_max_ = opts_.base_rate_hz * (1.0 + opts_.diurnal_amplitude) * opts_.burst_multiplier;
  next_switch_ = rng_.exponential(1.0 / opts_.mean_calm_s);
}

void ArrivalProcess::advance_burst_state(double t) {
  while (t >= next_switch_) {
    bursting_ = !bursting_;
    const double mean = bursting_ ? opts_.mean_burst_s : opts_.mean_calm_s;
    next_switch_ += rng_.exponential(1.0 / mean);
  }
}

double ArrivalProcess::rate(double t) const {
  const double diurnal =
      1.0 + opts_.diurnal_amplitude *
                std::sin(2.0 * std::numbers::pi * t / opts_.diurnal_period_s + opts_.diurnal_phase);
  return opts_.base_rate_hz * diurnal * (bursting_ ? opts_.burst_multiplier : 1.0);
}

double ArrivalProcess::next_after(double t) {
  // Lewis-Shedler thinning against the constant envelope lambda_max_.
  for (;;) {
    t += rng_.exponential(lambda_max_);
    advance_burst_state(t);
    if (rng_.uniform() * lambda_max_ <= rate(t)) return t;
  }
}

std::vector<double> ArrivalProcess::generate(double horizon) {
  std::vector<double> out;
  double t = 0.0;
  for (;;) {
    t = next_after(t);
    if (t >= horizon) break;
    out.push_back(t);
  }
  return out;
}

}  // namespace hcrl::workload
