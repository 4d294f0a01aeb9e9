#include "src/sim/policies.hpp"

#include <array>
#include <span>
#include <string>

#include "src/sim/cluster_view.hpp"
#include "src/sim/server.hpp"

namespace hcrl::sim {

namespace {

/// Failure mask for stateless allocators: first non-failed server scanning
/// cyclically from `start`. Returns `start` itself when every server is
/// failed (the engine then bounces the placement into the retry stream).
/// A no-op (returns `start`) whenever fault injection is off.
ServerId first_live_from(const ClusterView& cluster, ServerId start) {
  const std::size_t m = cluster.num_servers();
  for (std::size_t k = 0; k < m; ++k) {
    const ServerId i = (start + k) % m;
    if (!cluster.server(i).failed()) return i;
  }
  return start;
}

}  // namespace

ServerId RoundRobinAllocator::select_server(const ClusterView& cluster, const Job& job) {
  (void)job;
  const ServerId chosen = next_ % cluster.num_servers();
  next_ = (next_ + 1) % cluster.num_servers();
  return first_live_from(cluster, chosen);
}

ServerId RandomAllocator::select_server(const ClusterView& cluster, const Job& job) {
  (void)job;
  const auto chosen = static_cast<ServerId>(
      rng_.uniform_int(0, static_cast<std::int64_t>(cluster.num_servers()) - 1));
  return first_live_from(cluster, chosen);
}

ServerId LeastLoadedAllocator::select_server(const ClusterView& cluster, const Job& job) {
  (void)job;
  // Prefer the least-utilized awake server; wake a sleeping one only when
  // no awake server can absorb the job without saturating.
  ServerId best_awake = cluster.num_servers();
  double best_util = 2.0;
  for (ServerId i = 0; i < cluster.num_servers(); ++i) {
    const Server& s = cluster.server(i);
    if (!s.is_on() && s.power_state() != PowerState::kWaking) continue;
    const double u = s.utilization(0) + static_cast<double>(s.queue_length());
    if (u < best_util) {
      best_util = u;
      best_awake = i;
    }
  }
  if (best_awake < cluster.num_servers() && best_util + job.demand[0] <= 1.0) return best_awake;
  // Saturated (or nothing awake): pick any sleeping server, else least loaded.
  // (kFailed is excluded everywhere: it is neither on, waking, nor kSleep.)
  for (ServerId i = 0; i < cluster.num_servers(); ++i) {
    if (cluster.server(i).power_state() == PowerState::kSleep) return i;
  }
  return best_awake < cluster.num_servers() ? best_awake : first_live_from(cluster, 0);
}

namespace {

using Lanes = std::array<double, ResourceVector::kMaxDims>;

/// Shared fallback when no awake server can take the job now: wake the first
/// sleeping server, else join the shortest combined backlog among live
/// servers (0 as a last resort when the whole cluster is failed — the
/// engine bounces that placement).
ServerId wake_or_shortest_backlog(const ClusterView& cluster) {
  const std::span<const Server> servers = cluster.servers();
  for (ServerId i = 0; i < servers.size(); ++i) {
    if (servers[i].power_state() == PowerState::kSleep) return i;
  }
  ServerId fallback = servers.size();
  std::size_t best_backlog = static_cast<std::size_t>(-1);
  for (ServerId i = 0; i < servers.size(); ++i) {
    if (servers[i].failed()) continue;
    const std::size_t backlog = servers[i].jobs_on_server();
    if (backlog < best_backlog) {
      best_backlog = backlog;
      fallback = i;
    }
  }
  return fallback < servers.size() ? fallback : 0;
}

[[noreturn]] void throw_dims_mismatch(const Job& job, const Server& s) {
  throw std::invalid_argument("packing allocator: job " + std::to_string(job.id) + " has " +
                              std::to_string(job.demand.dims()) + " demand dimensions, server " +
                              std::to_string(s.id()) + " has " +
                              std::to_string(s.used().dims()));
}

/// The one scan of the four packing allocators. Among the awake (or waking)
/// servers with an empty queue whose free capacity fits `job`, pick the one
/// with the highest `score(server, free)`; strictly-greater wins, so ties
/// keep the lowest id. When none qualifies, fall back to
/// wake_or_shortest_backlog. A job whose demand has a different number of
/// dimensions throws std::invalid_argument at the first such open server.
///
/// Each candidate's free capacity is computed once, and the fit test and
/// the scores read all kMaxDims lanes (see ResourceVector::lanes). The scan
/// keeps no per-server record between calls, so the engine's event handlers
/// pay nothing for it; workloads that never pack never run it.
template <class ScoreFn>
ServerId best_scoring_fit(const ClusterView& cluster, const Job& job, ScoreFn score) {
  const std::span<const Server> servers = cluster.servers();
  const Lanes& demand = job.demand.lanes();
  ServerId best = servers.size();
  double best_score = -std::numeric_limits<double>::infinity();
  for (ServerId i = 0; i < servers.size(); ++i) {
    const Server& s = servers[i];
    const bool usable = s.is_on() || s.power_state() == PowerState::kWaking;
    if (!usable || !s.queue_empty()) continue;
    if (s.used().dims() != job.demand.dims()) throw_dims_mismatch(job, s);
    // Server::available() lane by lane, with no copy and no dimension check.
    const Lanes& capacity = s.capacity().lanes();
    const Lanes& used = s.used().lanes();
    Lanes free{};
    bool fits = true;
    for (std::size_t d = 0; d < ResourceVector::kMaxDims; ++d) {
      free[d] = capacity[d] - used[d];
      fits &= !(demand[d] > free[d] + ResourceVector::kFitEps);
    }
    if (!fits) continue;
    const double sc = score(s, free);
    if (sc > best_score) {
      best_score = sc;
      best = i;
    }
  }
  return best < servers.size() ? best : wake_or_shortest_backlog(cluster);
}

double lane_sum(const Lanes& free) {
  double sum = 0.0;
  for (const double x : free) sum += x;
  return sum;
}

}  // namespace

ServerId FirstFitPackingAllocator::select_server(const ClusterView& cluster, const Job& job) {
  // The busiest fitting server: consolidation without creating waits.
  return best_scoring_fit(cluster, job,
                          [](const Server& s, const Lanes&) { return s.utilization(0); });
}

ServerId BestFitAllocator::select_server(const ClusterView& cluster, const Job& job) {
  return best_scoring_fit(cluster, job, [](const Server&, const Lanes& free) {
    return -lane_sum(free);  // least leftover = tightest bin
  });
}

ServerId WorstFitAllocator::select_server(const ClusterView& cluster, const Job& job) {
  return best_scoring_fit(cluster, job,
                          [](const Server&, const Lanes& free) { return lane_sum(free); });
}

ServerId TetrisAllocator::select_server(const ClusterView& cluster, const Job& job) {
  const Lanes& demand = job.demand.lanes();
  return best_scoring_fit(cluster, job, [&demand](const Server&, const Lanes& free) {
    double dot = 0.0;
    for (std::size_t d = 0; d < ResourceVector::kMaxDims; ++d) dot += free[d] * demand[d];
    return dot;
  });
}

RandomKAllocator::RandomKAllocator(std::size_t k, common::Rng rng) : k_(k), rng_(rng) {
  if (k == 0) throw std::invalid_argument("RandomKAllocator: k == 0");
}

ServerId RandomKAllocator::select_server(const ClusterView& cluster, const Job& job) {
  (void)job;
  // k independent draws (with replacement — the classic power-of-k-choices
  // sampler); among the sampled servers prefer the least-loaded usable one.
  ServerId chosen = cluster.num_servers();
  double chosen_load = std::numeric_limits<double>::infinity();
  for (std::size_t draw = 0; draw < k_; ++draw) {
    const auto i = static_cast<ServerId>(
        rng_.uniform_int(0, static_cast<std::int64_t>(cluster.num_servers()) - 1));
    const Server& s = cluster.server(i);
    if (s.failed()) continue;  // failed samples burn a draw but never win
    const bool usable = s.is_on() || s.power_state() == PowerState::kWaking;
    // Sleeping samples are admissible (they wake on dispatch) but rank after
    // any usable sample: charge them the wake as one queued-job equivalent.
    const double load = s.utilization(0) + static_cast<double>(s.queue_length()) +
                        (usable ? 0.0 : 1.0 + static_cast<double>(s.jobs_on_server()));
    if (load < chosen_load) {
      chosen_load = load;
      chosen = i;
    }
  }
  return chosen < cluster.num_servers() ? chosen : first_live_from(cluster, 0);
}

double AlwaysOnPolicy::on_idle(const Server& server, Time now) {
  (void)server;
  (void)now;
  return kNeverSleep;
}

double ImmediateSleepPolicy::on_idle(const Server& server, Time now) {
  (void)server;
  (void)now;
  return 0.0;
}

double FixedTimeoutPolicy::on_idle(const Server& server, Time now) {
  (void)server;
  (void)now;
  return timeout_;
}

}  // namespace hcrl::sim
