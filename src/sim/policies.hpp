// Policy interfaces + reference policies.
//
// The global tier implements AllocationPolicy (which server gets the job);
// the local tier implements PowerPolicy (what to do when a server idles).
// Reference implementations here are the paper's baselines: round-robin
// allocation, always-on, immediate ("ad hoc") sleep, and fixed timeouts.
#pragma once

#include <limits>
#include <stdexcept>
#include <string>

#include "src/common/rng.hpp"
#include "src/sim/types.hpp"

namespace hcrl::sim {

class ClusterView;
class Server;

/// Returned by PowerPolicy::on_idle to keep the server powered on forever.
constexpr double kNeverSleep = std::numeric_limits<double>::infinity();

/// Global tier: decides the target server for each arriving job.
class AllocationPolicy {
 public:
  virtual ~AllocationPolicy() = default;

  /// Vestigial: nothing reads routing_mode(). It stays only because the
  /// bench_e2e timing decorator forwards it, until the next benchmark change.
  enum class RoutingMode { kGlobalState };

  /// Called once per job arrival (= one decision epoch, §V). Must return a
  /// server index in [0, cluster.num_servers()).
  virtual ServerId select_server(const ClusterView& cluster, const Job& job) = 0;

  /// Called when the simulation finishes (hook for learners to flush).
  virtual void on_simulation_end(const ClusterView& cluster, Time now) {
    (void)cluster;
    (void)now;
  }

  /// Vestigial (see RoutingMode).
  virtual RoutingMode routing_mode() const { return RoutingMode::kGlobalState; }

  virtual std::string name() const = 0;
};

class EventQueue;

/// Local tier: per-server dynamic power management.
class PowerPolicy {
 public:
  virtual ~PowerPolicy() = default;

  /// Called when `server` enters the idle state with an empty queue
  /// (decision-epoch case 1 of §VI-B). Return the timeout in seconds:
  /// 0 sleeps immediately, kNeverSleep stays on.
  virtual double on_idle(const Server& server, Time now) = 0;

  /// Unused stubs: bench_e2e overrides them; the next benchmark change deletes them.
  virtual bool defer_idle(Server& server, Time now, EventQueue& queue) {
    (void)server; (void)now; (void)queue;
    return false;
  }
  virtual bool has_staged_decisions() const { return false; }
  virtual void flush_decisions() {}

  /// Called on every job arrival at the server, before it is enqueued
  /// (feeds workload predictors; cases 2/3 of §VI-B need no decision).
  virtual void on_arrival(const Server& server, const Job& job, Time now) {
    (void)server; (void)job; (void)now;
  }

  /// Vestigial: nothing reads it. It stays only because the bench_e2e
  /// timing decorator forwards it, until the next benchmark change.
  virtual bool shard_parallel_safe() const { return false; }

  virtual std::string name() const = 0;
};

// ---- reference allocation policies ----------------------------------------

/// The paper's baseline: dispatch jobs to servers cyclically.
class RoundRobinAllocator final : public AllocationPolicy {
 public:
  ServerId select_server(const ClusterView& cluster, const Job& job) override;
  std::string name() const override { return "round-robin"; }

 private:
  ServerId next_ = 0;
};

/// Uniformly random dispatch (diagnostic baseline).
class RandomAllocator final : public AllocationPolicy {
 public:
  explicit RandomAllocator(common::Rng rng) : rng_(rng) {}
  ServerId select_server(const ClusterView& cluster, const Job& job) override;
  std::string name() const override { return "random"; }

 private:
  common::Rng rng_;
};

/// Sends each job to the awake server with the lowest CPU utilization;
/// wakes a sleeping server only when every awake server is saturated.
class LeastLoadedAllocator final : public AllocationPolicy {
 public:
  ServerId select_server(const ClusterView& cluster, const Job& job) override;
  std::string name() const override { return "least-loaded"; }
};

/// Packs jobs onto the busiest awake server that still fits them
/// (greedy consolidation heuristic — a non-learning contrast to the DRL tier).
class FirstFitPackingAllocator final : public AllocationPolicy {
 public:
  ServerId select_server(const ClusterView& cluster, const Job& job) override;
  std::string name() const override { return "first-fit-packing"; }
};

/// Classical best-fit: the awake, empty-queue server that fits the job with
/// the LEAST total capacity left over (tightest bin). Falls back to waking a
/// sleeping server, then to the shortest backlog.
class BestFitAllocator final : public AllocationPolicy {
 public:
  ServerId select_server(const ClusterView& cluster, const Job& job) override;
  std::string name() const override { return "best-fit"; }
};

/// Classical worst-fit: the awake, empty-queue fitting server with the MOST
/// total capacity left over (load spreading, the anti-consolidation
/// contrast). Same fallbacks as best-fit.
class WorstFitAllocator final : public AllocationPolicy {
 public:
  ServerId select_server(const ClusterView& cluster, const Job& job) override;
  std::string name() const override { return "worst-fit"; }
};

/// Tetris-style multi-resource packing: among awake, empty-queue servers
/// that fit, maximize the dot product of the job's demand vector and the
/// server's available-resource vector — placements where the job's shape
/// aligns with the machine's remaining shape, which packs mixed CPU/mem/disk
/// demands tighter than any single-dimension rule.
class TetrisAllocator final : public AllocationPolicy {
 public:
  ServerId select_server(const ClusterView& cluster, const Job& job) override;
  std::string name() const override { return "tetris"; }
};

/// Power-of-k-choices: sample k servers from the seeded per-policy stream
/// and dispatch to the least-loaded usable one among them.
class RandomKAllocator final : public AllocationPolicy {
 public:
  RandomKAllocator(std::size_t k, common::Rng rng);
  ServerId select_server(const ClusterView& cluster, const Job& job) override;
  std::string name() const override { return "random-" + std::to_string(k_); }
  std::size_t k() const noexcept { return k_; }

 private:
  std::size_t k_;
  common::Rng rng_;
};

// ---- reference power policies ----------------------------------------------

/// Never sleeps. Paired with round-robin this is the paper's baseline.
class AlwaysOnPolicy final : public PowerPolicy {
 public:
  double on_idle(const Server& server, Time now) override;
  std::string name() const override { return "always-on"; }
};

/// Sleeps the instant the server idles — the "ad hoc" manner of Fig. 4(a);
/// pairing it with the DRL global tier gives the paper's "DRL-based
/// resource allocation only" system.
class ImmediateSleepPolicy final : public PowerPolicy {
 public:
  double on_idle(const Server& server, Time now) override;
  std::string name() const override { return "immediate-sleep"; }
};

/// Sleeps after a fixed timeout (the 30/60/90 s baselines of Fig. 10).
class FixedTimeoutPolicy final : public PowerPolicy {
 public:
  explicit FixedTimeoutPolicy(double timeout_s) : timeout_(timeout_s) {
    if (!(timeout_s >= 0.0)) {
      throw std::invalid_argument("FixedTimeoutPolicy: timeout must be >= 0 (inf never sleeps)");
    }
  }
  double on_idle(const Server& server, Time now) override;
  std::string name() const override { return "fixed-timeout-" + std::to_string(timeout_); }
  double timeout() const noexcept { return timeout_; }

 private:
  double timeout_;
};

}  // namespace hcrl::sim
