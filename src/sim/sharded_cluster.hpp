// Sharded cluster engine: servers partitioned into N logical shards, each
// with its own EventQueue, metrics accumulator and local clock.
//
// All non-arrival events (finish, wake/sleep transitions, idle timeouts) are
// server-local, so between consecutive job arrivals the shards are fully
// independent. Arrivals are the only cross-shard interactions — the global
// tier reads cluster-wide state to route them — which yields a conservative
// lookahead bound: every shard may safely advance to (strictly below) the
// next arrival time before the router runs.
//
// Two execution modes:
//  - kLockstep: single-threaded; shards advance one event at a time under a
//    merged (time, arrival-first, shard, seq) order that reproduces the
//    serial Cluster exactly when num_shards == 1 (including the staged
//    decision-epoch flush barrier). Supports every policy.
//  - kParallel: one worker thread per shard draining windows bounded by the
//    next arrival; requires PowerPolicy::shard_parallel_safe(). When the
//    allocator is RoutingMode::kTraceOnly, arrivals are pre-routed at load
//    and the whole run is a single window with no barriers.
//
// See src/sim/README.md for the determinism contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/arrivals.hpp"
#include "src/sim/cluster.hpp"
#include "src/sim/cluster_view.hpp"
#include "src/sim/event_queue.hpp"
#include "src/sim/metrics.hpp"
#include "src/sim/policies.hpp"
#include "src/sim/server.hpp"
#include "src/sim/types.hpp"

namespace hcrl::sim {

struct ShardedClusterConfig {
  ClusterConfig cluster;
  std::size_t num_shards = 2;

  enum class Execution {
    kLockstep,  // single-threaded merged order; any policy
    kParallel,  // worker thread per shard; needs shard_parallel_safe()
  };
  Execution execution = Execution::kLockstep;

  void validate() const;
};

class ShardedCluster final : public ClusterView {
 public:
  /// Policies are borrowed and must outlive the engine. Throws if
  /// execution == kParallel and the power policy is not shard_parallel_safe().
  ShardedCluster(const ShardedClusterConfig& cfg, AllocationPolicy& allocation,
                 PowerPolicy& power);

  /// Install deterministic fault injection (borrowed; must outlive the
  /// engine). Must be called before load_jobs. Lockstep mode only: throws
  /// std::invalid_argument in kParallel mode, where the retry stream and
  /// crash/recover events would be cross-shard interactions that break the
  /// conservative-lookahead window protocol.
  void install_faults(FaultInjector* faults);

  /// Load the trace (sorted by arrival, unique ids; may be called once).
  /// In parallel mode with a RoutingMode::kTraceOnly allocator the arrivals
  /// are routed here, in trace order, and pushed into their shards' queues.
  void load_jobs(std::vector<Job> jobs);

  /// Process one event under the merged lockstep order; returns false when
  /// every shard has drained. Throws std::logic_error in parallel mode.
  bool step();
  /// Run to completion (steps in lockstep mode, windowed threads in parallel).
  void run();
  /// Run until at least `n` jobs completed cluster-wide (lockstep only).
  void run_until_completed(std::size_t n);

  Time now() const noexcept override { return now_; }
  const std::vector<Job>& jobs() const noexcept { return jobs_; }
  std::size_t num_shards() const noexcept { return shards_.size(); }
  std::size_t shard_of(ServerId server) const { return owner_.at(server); }
  const ShardedClusterConfig& config() const noexcept { return cfg_; }

  // ClusterView aggregate queries: deterministic shard-order sums of the
  // per-shard accumulators. With one shard each sum is an identity, which is
  // what makes shards=1 bit-identical to the serial engine.
  double energy_joules(Time t) const override;
  double jobs_in_system_integral(Time t) const override;
  double reliability_integral(Time t) const override;
  std::size_t jobs_arrived() const noexcept override;
  std::size_t jobs_completed() const noexcept override;
  double mean_cpu_utilization() const override;
  std::size_t servers_on() const override;
  std::size_t servers_failed() const override;

  MetricsSnapshot snapshot() const;
  const ClusterMetrics& shard_metrics(std::size_t shard) const {
    return *shards_.at(shard).metrics;
  }
  /// Total events processed across shards (arrivals + server-local events).
  std::uint64_t events_processed() const noexcept;

 private:
  struct Shard {
    std::size_t begin = 0;  // owned server-id range [begin, end)
    std::size_t end = 0;
    EventQueue queue;
    std::unique_ptr<ClusterMetrics> metrics;
    Time clock = 0.0;  // time of the shard's last processed event
    std::uint64_t events = 0;
  };

  struct MergedTop {
    NextEvent next;
    std::size_t shard = 0;  // owner of the heap top when next.source == kHeap
  };

  MergedTop merged_top() const;
  void deliver_arrival(const Job& job);
  /// Route jobs revoked by a crash/eviction into the retry stream,
  /// accounting on the shard that owned the killing event.
  void requeue_killed(Shard& sh, const std::vector<Job>& killed);
  void handle_shard_event(Shard& shard, const Event& e);
  void drain_shard(std::size_t shard, Time bound);
  void run_parallel();
  Time end_time() const;

  ShardedClusterConfig cfg_;
  AllocationPolicy& allocation_;
  PowerPolicy& power_policy_;
  std::vector<Shard> shards_;
  std::vector<std::size_t> owner_;  // server id -> shard index
  std::vector<Server> servers_;
  std::vector<Job> jobs_;
  FaultInjector* faults_ = nullptr;  // not owned; null = faults off
  std::size_t next_arrival_ = 0;  // coordinator cursor (unused when pre-routed)
  bool pre_routed_ = false;
  bool jobs_loaded_ = false;
  bool finished_notified_ = false;
  Time now_ = 0.0;
};

}  // namespace hcrl::sim
