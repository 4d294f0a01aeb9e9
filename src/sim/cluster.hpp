// The cluster simulation engine: job broker + M servers + event loop.
//
// Continuous-time and event-driven, exactly as the paper's decision
// framework requires: every job arrival is a global-tier decision epoch,
// every idle-entry is a local-tier decision epoch. `step()` processes one
// event so callers can checkpoint metrics at any granularity (the figures
// plot metrics versus number-of-jobs).
#pragma once

#include <memory>
#include <vector>

#include "src/sim/cluster_view.hpp"
#include "src/sim/event_queue.hpp"
#include "src/sim/fault/fault.hpp"
#include "src/sim/metrics.hpp"
#include "src/sim/policies.hpp"
#include "src/sim/server.hpp"
#include "src/sim/types.hpp"

namespace hcrl::sim {

struct ClusterConfig {
  std::size_t num_servers = 30;
  ServerConfig server;
  bool keep_job_records = true;

  void validate() const;
};

class Cluster final : public ClusterView {
 public:
  /// Policies are borrowed and must outlive the cluster.
  Cluster(const ClusterConfig& cfg, AllocationPolicy& allocation, PowerPolicy& power);

  /// Install deterministic fault injection (borrowed; must outlive the
  /// cluster). Must be called before load_jobs, which materializes the
  /// fault plan into the event queue.
  void install_faults(FaultInjector* faults);

  /// Load the trace. Jobs must be sorted by arrival time and have unique
  /// ids; throws otherwise. May only be called once, before stepping.
  void load_jobs(std::vector<Job> jobs);

  /// Process one event; returns false when the event queue is empty.
  bool step();
  /// Run until all events (arrivals + completions + transitions) drain.
  void run();
  /// Run until at least `n` jobs have completed (or events drain).
  void run_until_completed(std::size_t n);

  Time now() const noexcept override { return now_; }
  const std::vector<Job>& jobs() const noexcept { return jobs_; }

  ClusterMetrics& metrics() noexcept { return metrics_; }
  const ClusterMetrics& metrics() const noexcept { return metrics_; }
  MetricsSnapshot snapshot() const { return metrics_.snapshot(now_); }

  // ClusterView aggregate queries, answered from the metrics accumulators.
  double energy_joules(Time t) const override { return metrics_.energy_joules(t); }
  double jobs_in_system_integral(Time t) const override {
    return metrics_.jobs_in_system_integral(t);
  }
  double reliability_integral(Time t) const override { return metrics_.reliability_integral(t); }
  std::size_t jobs_arrived() const noexcept override { return metrics_.jobs_arrived(); }
  std::size_t jobs_completed() const noexcept override { return metrics_.jobs_completed(); }

  /// Sum of CPU utilizations across servers divided by M (cluster load); O(1).
  double mean_cpu_utilization() const override;
  /// Number of servers currently powered on (active or idle); O(1).
  std::size_t servers_on() const override;
  /// Number of servers currently crash-failed; O(1).
  std::size_t servers_failed() const override { return metrics_.servers_failed(); }

  const ClusterConfig& config() const noexcept { return cfg_; }

 private:
  void handle(const Event& e);
  /// Route a (trace or retry) arrival to the selected server, bouncing it
  /// into the retry stream when the target has crash-failed.
  void dispatch_arrival(const Job& job);
  /// Re-queue jobs revoked by a crash/eviction through the retry policy.
  void requeue_killed(const std::vector<Job>& killed);

  ClusterConfig cfg_;
  AllocationPolicy& allocation_;
  PowerPolicy& power_policy_;
  ClusterMetrics metrics_;
  std::vector<Server> servers_;
  EventQueue queue_;
  std::vector<Job> jobs_;
  std::size_t next_arrival_ = 0;  // trace cursor: index of the next arrival
  FaultInjector* faults_ = nullptr;  // not owned; null = faults off
  bool jobs_loaded_ = false;
  bool finished_notified_ = false;
  Time now_ = 0.0;
};

}  // namespace hcrl::sim
