// Cluster-level measurement: energy, latency, jobs-in-system, reliability.
//
// All quantities are exact integrals of piecewise-constant signals between
// events — no sampling error. These integrals are also what the RL reward
// functions consume (Eqn. 4 and Eqn. 5 integrate power / #VMs over sojourns).
#pragma once

#include <cstddef>
#include <vector>

#include "src/common/stats.hpp"
#include "src/sim/types.hpp"

namespace hcrl::sim {

/// Lost-work accounting under fault injection (all zero without faults).
/// Integer fields are exact: every count is taken at a totally ordered event.
struct FaultCounters {
  std::size_t crashes = 0;          // full-server failures applied
  std::size_t recoveries = 0;       // repairs completed
  std::size_t evictions = 0;        // spot revocations that killed >= 1 job
  std::size_t jobs_killed = 0;      // running/queued jobs revoked
  std::size_t bounces = 0;          // arrivals rejected (target had failed)
  std::size_t retries = 0;          // re-submissions scheduled
  std::size_t jobs_lost = 0;        // dropped after the retry budget
  double lost_cpu_seconds = 0.0;    // discarded execution progress
  double downtime_s = 0.0;          // total failed time over recovered servers

  /// Mean time to repair over completed recoveries.
  double mttr_s() const noexcept {
    return recoveries > 0 ? downtime_s / static_cast<double>(recoveries) : 0.0;
  }
};

struct MetricsSnapshot {
  Time now = 0.0;
  std::size_t jobs_arrived = 0;
  std::size_t jobs_completed = 0;
  double energy_joules = 0.0;           // integral of total cluster power
  double accumulated_latency_s = 0.0;   // sum of completed-job latencies
  double average_power_watts = 0.0;     // energy / elapsed
  double jobs_in_system = 0.0;          // current count
  double reliability_penalty = 0.0;     // integral of hot-spot penalty
  FaultCounters faults;                 // lost-work accounting (fault injection)

  double energy_kwh() const noexcept { return energy_joules / 3.6e6; }
  double average_latency_s() const noexcept {
    return jobs_completed > 0 ? accumulated_latency_s / static_cast<double>(jobs_completed) : 0.0;
  }
  /// Average energy per completed job, in joules.
  double energy_per_job() const noexcept {
    return jobs_completed > 0 ? energy_joules / static_cast<double>(jobs_completed) : 0.0;
  }
};

class ClusterMetrics {
 public:
  explicit ClusterMetrics(std::size_t num_servers, bool keep_job_records = true);

  // -- signal updates (called by the cluster/servers) -----------------------
  void on_arrival(const Job& job, Time now);
  void on_completion(const JobRecord& record, Time now);
  /// A server's power draw changed; delta may be negative.
  void on_power_change(ServerId server, double new_watts, Time now);
  /// A server's hot-spot (reliability) penalty contribution changed.
  void on_reliability_change(ServerId server, double new_penalty, Time now);
  /// A server's availability (powered on/off) or CPU utilization changed.
  /// Maintains the O(1) servers_on / cpu_used_sum aggregates so cluster-wide
  /// load queries never rescan every server (at 10k servers the
  /// per-checkpoint O(M) scans dominate the metrics path).
  void on_server_status(ServerId server, bool is_on, double cpu_used);

  // -- fault accounting (see src/sim/fault/fault.hpp) ------------------------
  void on_crash(Time now);
  void on_recovery(double downtime_s, Time now);
  void on_eviction(Time now);
  /// A running/queued job was revoked; removes it from the in-system count.
  void on_job_killed(double lost_cpu_seconds, Time now);
  /// An arrival was rejected because its target had failed (the job never
  /// entered the system; it re-enters via the retry stream).
  void on_bounce();
  void on_retry();
  void on_job_lost();

  // -- queries ---------------------------------------------------------------
  double total_power_watts() const noexcept { return total_power_.current(); }
  double energy_joules(Time now) const { return total_power_.integral(now); }
  double jobs_in_system() const noexcept { return jobs_in_system_.current(); }
  double jobs_in_system_integral(Time now) const { return jobs_in_system_.integral(now); }
  double reliability_integral(Time now) const { return reliability_.integral(now); }
  std::size_t jobs_arrived() const noexcept { return arrived_; }
  std::size_t jobs_completed() const noexcept { return completed_; }
  /// Servers currently powered on (active or idle); O(1).
  std::size_t servers_on() const noexcept { return servers_on_; }
  /// Servers currently crash-failed; O(1).
  std::size_t servers_failed() const noexcept { return servers_failed_; }
  const FaultCounters& faults() const noexcept { return faults_; }
  /// Sum of per-server CPU utilizations; O(1). Incrementally maintained, so
  /// it may drift from an exact rescan by float rounding only (pinned to the
  /// brute-force scan in tests).
  double cpu_used_sum() const noexcept { return cpu_used_sum_; }
  double accumulated_latency(Time /*unused*/ = 0.0) const noexcept { return latency_sum_; }
  const common::RunningStats& latency_stats() const noexcept { return latency_stats_; }
  const common::RunningStats& wait_stats() const noexcept { return wait_stats_; }
  const std::vector<JobRecord>& job_records() const noexcept { return records_; }

  /// Latency percentile over completed jobs (q in [0, 1]). Requires job
  /// records to be kept; throws std::logic_error otherwise or when empty.
  double latency_percentile(double q) const;

  MetricsSnapshot snapshot(Time now) const;

 private:
  bool keep_job_records_;
  std::vector<double> server_power_;
  std::vector<double> server_reliability_;
  std::vector<std::uint8_t> server_on_;
  std::vector<double> server_cpu_;
  std::size_t servers_on_ = 0;
  std::size_t servers_failed_ = 0;
  FaultCounters faults_;
  double cpu_used_sum_ = 0.0;
  common::TimeWeightedValue total_power_;
  common::TimeWeightedValue jobs_in_system_;
  common::TimeWeightedValue reliability_;
  std::size_t arrived_ = 0;
  std::size_t completed_ = 0;
  double latency_sum_ = 0.0;
  common::RunningStats latency_stats_;
  common::RunningStats wait_stats_;
  std::vector<JobRecord> records_;
};

}  // namespace hcrl::sim
