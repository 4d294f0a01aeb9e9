#include "src/common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace hcrl::common {

double percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto k = static_cast<std::size_t>(q * static_cast<double>(values.size() - 1));
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(k), values.end());
  return values[k];
}

double quantile_from_bins(std::span<const std::uint64_t> bins, std::span<const double> bounds,
                          double q) {
  if (bounds.empty() || bins.size() != bounds.size() + 1) {
    throw std::invalid_argument("quantile_from_bins: bins must have bounds.size() + 1 entries");
  }
  std::uint64_t total = 0;
  for (auto b : bins) total += b;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total);
  double cum = 0.0;
  for (std::size_t i = 0; i < bins.size(); ++i) {
    const double next = cum + static_cast<double>(bins[i]);
    if (next >= target && bins[i] > 0) {
      // Edge bins are open-ended; collapse them onto their finite boundary so
      // the result stays within the configured range.
      const double lo = i == 0 ? bounds.front() : bounds[i - 1];
      const double hi = i == bins.size() - 1 ? bounds.back() : bounds[i];
      const double frac = (target - cum) / static_cast<double>(bins[i]);
      return lo + frac * (hi - lo);
    }
    cum = next;
  }
  return bounds.back();
}

void RunningStats::add(double x) noexcept {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const noexcept {
  return n_ >= 2 ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

void TimeWeightedValue::set(double t, double value) {
  if (!started_) {
    started_ = true;
    last_t_ = t;
    value_ = value;
    return;
  }
  if (t < last_t_) throw std::invalid_argument("TimeWeightedValue: time went backwards");
  integral_ += value_ * (t - last_t_);
  last_t_ = t;
  value_ = value;
}

double TimeWeightedValue::integral(double t) const {
  if (!started_) return 0.0;
  if (t < last_t_) throw std::invalid_argument("TimeWeightedValue: query before last sample");
  return integral_ + value_ * (t - last_t_);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), width_((hi - lo) / static_cast<double>(bins)), counts_(bins, 0) {
  if (!(hi > lo) || bins == 0) throw std::invalid_argument("Histogram: bad range/bins");
}

void Histogram::add(double x) noexcept {
  auto idx = static_cast<std::ptrdiff_t>((x - lo_) / width_);
  idx = std::clamp<std::ptrdiff_t>(idx, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

double Histogram::bin_lo(std::size_t i) const noexcept { return lo_ + width_ * static_cast<double>(i); }
double Histogram::bin_hi(std::size_t i) const noexcept { return bin_lo(i) + width_; }

std::string Histogram::to_string(std::size_t max_width) const {
  std::size_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  std::ostringstream os;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto bar = counts_[i] * max_width / peak;
    os << "[" << bin_lo(i) << ", " << bin_hi(i) << ") " << std::string(bar, '#') << " "
       << counts_[i] << "\n";
  }
  return os.str();
}

}  // namespace hcrl::common
