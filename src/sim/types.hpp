// Core value types of the cluster simulator.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>

namespace hcrl::sim {

/// Simulation time in seconds (continuous).
using Time = double;
using JobId = std::int64_t;
using ServerId = std::size_t;

constexpr Time kSecondsPerHour = 3600.0;
constexpr Time kSecondsPerDay = 24.0 * kSecondsPerHour;
constexpr Time kSecondsPerWeek = 7.0 * kSecondsPerDay;

/// Per-resource utilization/request vector, normalized so that one server
/// offers 1.0 of each resource (CPU, memory, disk, ... — dimension D).
/// Stored inline (no heap block), so copying a Job or computing a server's
/// free capacity never allocates; D is therefore capped at kMaxDims.
class ResourceVector {
 public:
  /// Largest supported dimension; construction beyond it throws.
  static constexpr std::size_t kMaxDims = 4;
  /// Slack of fits(), so that accumulated floating-point release/acquire
  /// noise never wedges a job that exactly fills the machine.
  static constexpr double kFitEps = 1e-9;

  ResourceVector() = default;
  explicit ResourceVector(std::size_t dims, double fill = 0.0);
  ResourceVector(std::initializer_list<double> init);

  std::size_t dims() const noexcept { return dims_; }
  /// Checked: an index at or past dims() throws std::out_of_range.
  double operator[](std::size_t i) const { return v_[checked(i)]; }
  double& operator[](std::size_t i) { return v_[checked(i)]; }
  /// All kMaxDims lanes, read-only. Lanes at or past dims() are 0: every
  /// constructor zero-fills them, and add, subtract and clamp touch only the
  /// first dims(). So a sum or a fit test over all lanes equals one over the
  /// first dims(), and needs no bound that is known only at run time.
  const std::array<double, kMaxDims>& lanes() const noexcept { return v_; }

  void add(const ResourceVector& other) {
    check_same_dims(other, "ResourceVector::add: dim mismatch");
    for (std::size_t i = 0; i < dims_; ++i) v_[i] += other.v_[i];
  }
  void subtract(const ResourceVector& other) {
    check_same_dims(other, "ResourceVector::subtract: dim mismatch");
    for (std::size_t i = 0; i < dims_; ++i) v_[i] -= other.v_[i];
  }
  /// True when every component of `demand` fits within `*this` capacity.
  bool fits(const ResourceVector& demand) const {
    check_same_dims(demand, "ResourceVector::fits: dim mismatch");
    for (std::size_t i = 0; i < dims_; ++i) {
      if (demand.v_[i] > v_[i] + kFitEps) return false;
    }
    return true;
  }
  /// Largest component value (the bottleneck dimension).
  double max_component() const noexcept;
  /// Clamp all components to [lo, hi].
  void clamp(double lo, double hi) noexcept;

  std::string to_string() const;

 private:
  void check_same_dims(const ResourceVector& other, const char* what) const {
    if (other.dims_ != dims_) throw std::invalid_argument(what);
  }
  [[noreturn]] static void throw_index_error(std::size_t i, std::size_t dims);
  std::size_t checked(std::size_t i) const {
    if (i >= dims_) throw_index_error(i, dims_);
    return i;
  }

  std::array<double, kMaxDims> v_{};
  std::size_t dims_ = 0;
};

/// A job / VM request: the unit of work dispatched by the broker.
struct Job {
  JobId id = 0;
  Time arrival = 0.0;      // cluster arrival time (rewritten on retry delivery)
  Time duration = 0.0;     // execution time once started (> 0)
  ResourceVector demand;   // normalized per-resource request, each in (0, 1]
  /// Original submission time; < 0 means "never retried" (== arrival).
  /// Fault-injected retries set this so latency/SLA accounting measures
  /// from first submission, not from the last re-delivery.
  Time submitted = -1.0;

  Time submit_time() const noexcept { return submitted < 0.0 ? arrival : submitted; }

  void validate(std::size_t expected_dims) const;
};

/// Completion record kept by the metrics collector.
struct JobRecord {
  JobId id = 0;
  ServerId server = 0;
  Time arrival = 0.0;
  Time start = 0.0;
  Time finish = 0.0;

  Time latency() const noexcept { return finish - arrival; }
  Time wait() const noexcept { return start - arrival; }
};

}  // namespace hcrl::sim
