#include "src/sim/metrics.hpp"

#include <stdexcept>

namespace hcrl::sim {

ClusterMetrics::ClusterMetrics(std::size_t num_servers, bool keep_job_records)
    : keep_job_records_(keep_job_records),
      server_power_(num_servers, 0.0),
      server_reliability_(num_servers, 0.0) {
  total_power_.set(0.0, 0.0);
  jobs_in_system_.set(0.0, 0.0);
  reliability_.set(0.0, 0.0);
}

void ClusterMetrics::on_arrival(const Job& job, Time now) {
  (void)job;
  ++arrived_;
  jobs_in_system_.set(now, jobs_in_system_.current() + 1.0);
}

void ClusterMetrics::on_completion(const JobRecord& record, Time now) {
  ++completed_;
  jobs_in_system_.set(now, jobs_in_system_.current() - 1.0);
  latency_sum_ += record.latency();
  if (keep_job_records_) records_.push_back(record);
}

void ClusterMetrics::on_power_change(ServerId server, double new_watts, Time now) {
  if (server >= server_power_.size()) throw std::out_of_range("metrics: bad server id");
  const double delta = new_watts - server_power_[server];
  server_power_[server] = new_watts;
  total_power_.set(now, total_power_.current() + delta);
}

void ClusterMetrics::on_reliability_change(ServerId server, double new_penalty, Time now) {
  if (server >= server_reliability_.size()) throw std::out_of_range("metrics: bad server id");
  const double delta = new_penalty - server_reliability_[server];
  server_reliability_[server] = new_penalty;
  reliability_.set(now, reliability_.current() + delta);
}

void ClusterMetrics::on_crash(Time now) {
  (void)now;
  ++faults_.crashes;
  ++servers_failed_;
}

void ClusterMetrics::on_recovery(double downtime_s, Time now) {
  (void)now;
  ++faults_.recoveries;
  faults_.downtime_s += downtime_s;
  if (servers_failed_ == 0) throw std::logic_error("metrics: recovery without a crash");
  --servers_failed_;
}

void ClusterMetrics::on_eviction(Time now) {
  (void)now;
  ++faults_.evictions;
}

void ClusterMetrics::on_job_killed(double lost_cpu_seconds, Time now) {
  ++faults_.jobs_killed;
  faults_.lost_cpu_seconds += lost_cpu_seconds;
  jobs_in_system_.set(now, jobs_in_system_.current() - 1.0);
}

void ClusterMetrics::on_bounce() { ++faults_.bounces; }

void ClusterMetrics::on_retry() { ++faults_.retries; }

void ClusterMetrics::on_job_lost() { ++faults_.jobs_lost; }

MetricsSnapshot ClusterMetrics::snapshot(Time now) const {
  MetricsSnapshot s;
  s.now = now;
  s.jobs_arrived = arrived_;
  s.jobs_completed = completed_;
  s.energy_joules = total_power_.integral(now);
  s.accumulated_latency_s = latency_sum_;
  s.average_power_watts = now > 0.0 ? s.energy_joules / now : 0.0;
  s.jobs_in_system = jobs_in_system_.current();
  s.reliability_penalty = reliability_.integral(now);
  s.faults = faults_;
  return s;
}

}  // namespace hcrl::sim
