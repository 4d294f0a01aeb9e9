// Streaming statistics utilities used by the simulator and benchmarks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace hcrl::common {

/// Exact sample percentile with the index rule `k = floor(q * (n - 1))`
/// (lower-nearest-rank, the convention the tail-metric code has always
/// used). Partially sorts `values` in place via nth_element; returns 0 for
/// an empty vector. q is clamped to [0, 1].
double percentile(std::vector<double>& values, double q);

/// Approximate quantile from fixed-boundary histogram bins, linearly
/// interpolated inside the selected bin. `bins` has `bounds.size() + 1`
/// entries: bins[0] counts x < bounds[0], bins[i] counts
/// bounds[i-1] <= x < bounds[i], and bins.back() counts x >= bounds.back().
/// The open-ended edge bins interpolate toward their finite boundary.
/// Returns 0 when the histogram is empty; throws std::invalid_argument on a
/// size mismatch or empty bounds.
double quantile_from_bins(std::span<const std::uint64_t> bins, std::span<const double> bounds,
                          double q);

/// Welford online mean/variance accumulator.
class RunningStats {
 public:
  void add(double x) noexcept;
  void reset() noexcept { *this = RunningStats{}; }

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
  /// Population variance; 0 when fewer than 2 samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return n_ > 0 ? min_ : 0.0; }
  double max() const noexcept { return n_ > 0 ? max_ : 0.0; }
  double sum() const noexcept { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Time-weighted accumulator for a piecewise-constant signal.
///
/// The core energy-accounting primitive: `set(t, v)` records that the signal
/// takes value `v` from time `t` until the next call. `integral(t)` returns
/// the exact integral of the signal from the first set() up to time t.
class TimeWeightedValue {
 public:
  /// Record that the signal value is `value` starting at time `t`.
  /// Times must be non-decreasing.
  void set(double t, double value);
  /// Integral of the signal from the first set() through time `t`.
  double integral(double t) const;
  double current() const noexcept { return value_; }

 private:
  bool started_ = false;
  double last_t_ = 0.0;
  double value_ = 0.0;
  double integral_ = 0.0;
};

/// Fixed-bin histogram over [lo, hi); out-of-range samples clamp to the
/// first/last bin. Used for the text histograms of trace inspection.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;
  std::size_t bin_count(std::size_t i) const { return counts_.at(i); }
  std::size_t bins() const noexcept { return counts_.size(); }
  std::size_t total() const noexcept { return total_; }
  double bin_lo(std::size_t i) const noexcept;
  double bin_hi(std::size_t i) const noexcept;
  std::string to_string(std::size_t max_width = 50) const;

 private:
  double lo_, width_;
  std::size_t total_ = 0;
  std::vector<std::size_t> counts_;
};

}  // namespace hcrl::common
