#include "src/sim/sharded_cluster.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "src/sim/sim_telemetry.hpp"
#include "src/telemetry/profiler.hpp"
#include "src/telemetry/trace.hpp"

namespace hcrl::sim {

void ShardedClusterConfig::validate() const {
  cluster.validate();
  if (num_shards == 0) throw std::invalid_argument("ShardedClusterConfig: need >= 1 shard");
  if (num_shards > cluster.num_servers) {
    throw std::invalid_argument("ShardedClusterConfig: more shards than servers");
  }
}

ShardedCluster::ShardedCluster(const ShardedClusterConfig& cfg, AllocationPolicy& allocation,
                               PowerPolicy& power)
    : cfg_(cfg), allocation_(allocation), power_policy_(power) {
  cfg_.validate();
  if (cfg_.execution == ShardedClusterConfig::Execution::kParallel &&
      !power_policy_.shard_parallel_safe()) {
    throw std::invalid_argument("ShardedCluster: power policy '" + power_policy_.name() +
                                "' is not shard_parallel_safe; use lockstep execution");
  }

  const std::size_t m = cfg_.cluster.num_servers;
  const std::size_t n = cfg_.num_shards;
  shards_.resize(n);
  owner_.resize(m);
  // Contiguous block partition; the first (m % n) shards take one extra.
  const std::size_t base = m / n;
  const std::size_t rem = m % n;
  std::size_t next = 0;
  for (std::size_t s = 0; s < n; ++s) {
    shards_[s].begin = next;
    next += base + (s < rem ? 1 : 0);
    shards_[s].end = next;
    shards_[s].metrics =
        std::make_unique<ClusterMetrics>(m, cfg_.cluster.keep_job_records);
    for (std::size_t i = shards_[s].begin; i < shards_[s].end; ++i) owner_[i] = s;
  }

  servers_.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    servers_.emplace_back(i, cfg_.cluster.server, shards_[owner_[i]].metrics.get());
  }
  set_server_view({servers_.data(), servers_.size()});
}

void ShardedCluster::install_faults(FaultInjector* faults) {
  if (jobs_loaded_) throw std::logic_error("ShardedCluster::install_faults: jobs already loaded");
  if (faults != nullptr && cfg_.execution == ShardedClusterConfig::Execution::kParallel) {
    throw std::invalid_argument(
        "ShardedCluster: fault injection requires lockstep execution (the retry "
        "stream is a cross-shard interaction the parallel window protocol cannot order)");
  }
  if (faults != nullptr) {
    for (const FaultEvent& f : faults->plan().events) {
      if (f.server >= servers_.size()) {
        throw std::invalid_argument("ShardedCluster::install_faults: plan targets server " +
                                    std::to_string(f.server) + " out of range");
      }
    }
  }
  faults_ = faults;
}

void ShardedCluster::load_jobs(std::vector<Job> jobs) {
  if (jobs_loaded_) throw std::logic_error("ShardedCluster::load_jobs: already loaded");
  validate_trace(jobs, cfg_.cluster.server.num_resources, "ShardedCluster::load_jobs");
  jobs_ = std::move(jobs);
  jobs_loaded_ = true;

  if (cfg_.execution == ShardedClusterConfig::Execution::kParallel &&
      allocation_.routing_mode() == AllocationPolicy::RoutingMode::kTraceOnly) {
    // Trace-only routing depends on nothing but the arrival order, so every
    // decision can be made now, in trace order. The arrival event carries the
    // chosen target in its `server` field and the jobs_ index in `job`;
    // arrivals are pushed first, so within each shard they hold the smallest
    // seqs and win every same-time tie — exactly the serial tie-break.
    pre_routed_ = true;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      const ServerId target = allocation_.select_server(*this, jobs_[i]);
      if (target >= servers_.size()) {
        throw std::logic_error("AllocationPolicy returned invalid server " +
                               std::to_string(target));
      }
      shards_[owner_[target]].queue.push(jobs_[i].arrival, EventType::kJobArrival, target,
                                         static_cast<JobId>(i));
    }
    next_arrival_ = jobs_.size();
  }

  // Fault-plan events land per owning shard, in plan order, before any
  // runtime event is pushed: within each shard they hold the smallest seqs
  // (lockstep arrivals come via the cursor, not the queues). The plan's
  // (time, server, kind) sort plus the contiguous ascending shard ranges
  // make the merged (time, shard, seq) pop order equal to the serial
  // engine's (time, seq) order for every shard count.
  if (faults_ != nullptr) {
    for (const FaultEvent& f : faults_->plan().events) {
      shards_[owner_[f.server]].queue.push(f.time, to_event_type(f.kind), f.server);
    }
  }
}

ShardedCluster::MergedTop ShardedCluster::merged_top() const {
  // The earliest shard heap top; equal times go to the lowest shard.
  MergedTop top;
  std::optional<Time> heap_top;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& sh = shards_[s];
    if (sh.queue.empty()) continue;
    const Time t = sh.queue.top().time;
    if (!heap_top || t < *heap_top) {
      heap_top = t;
      top.shard = s;
    }
  }
  top.next = next_event(jobs_, next_arrival_, faults_, heap_top);
  return top;
}

bool ShardedCluster::step() {
  if (cfg_.execution == ShardedClusterConfig::Execution::kParallel) {
    throw std::logic_error("ShardedCluster::step: parallel mode runs whole windows; use run()");
  }
  // Decision-epoch flush barrier, same contract as Cluster::step(): staged
  // decisions commit before any event that could observe their outcome — a
  // time advance, any arrival, or queue drain. The flush may push events
  // earlier than the current merged top, so re-derive it afterwards.
  MergedTop top = merged_top();
  const NextEvent& next = top.next;  // follows `top` through the re-derivation
  // Retries are re-arrivals: for the barrier they count like arrivals.
  if (power_policy_.has_staged_decisions() &&
      (next.source == EventSource::kNone || next.time != now_ || next.is_arrival())) {
    count_flush(next.source == EventSource::kNone ? FlushReason::kDrain
                : next.is_arrival()               ? FlushReason::kArrival
                                                  : FlushReason::kTimeAdvance);
    power_policy_.flush_decisions();
    top = merged_top();
  }
  if (next.source == EventSource::kNone) {
    if (!finished_notified_) {
      finished_notified_ = true;
      allocation_.on_simulation_end(*this, now_);
    }
    return false;
  }
  if (next.time < now_) throw std::logic_error("ShardedCluster: time went backwards");
  now_ = next.time;
  if (next.source == EventSource::kArrival) {
    deliver_arrival(jobs_[next_arrival_++]);
  } else if (next.source == EventSource::kRetry) {
    deliver_arrival(faults_->pop_retry().job);
  } else {
    Shard& sh = shards_[top.shard];
    const Event e = sh.queue.pop();
    sh.clock = e.time;
    handle_shard_event(sh, e);
  }
  return true;
}

void ShardedCluster::deliver_arrival(const Job& job) {
  const ServerId target = allocation_.select_server(*this, job);
  if (target >= servers_.size()) {
    throw std::logic_error("AllocationPolicy returned invalid server " + std::to_string(target));
  }
  Shard& sh = shards_[owner_[target]];
  ++sh.events;
  if (telemetry::enabled()) telemetry::count(SimMetrics::get().events);
  if (faults_ != nullptr && servers_[target].failed()) {
    // Transient allocation failure: bounce into the retry stream (same
    // semantics as Cluster::dispatch_arrival), accounted on the owner shard.
    sh.metrics->on_bounce();
    if (faults_->schedule_retry(job, now_)) {
      sh.metrics->on_retry();
      if (telemetry::enabled()) telemetry::count(SimMetrics::get().fault_retries);
    } else {
      sh.metrics->on_job_lost();
      if (telemetry::enabled()) telemetry::count(SimMetrics::get().fault_lost);
    }
    return;
  }
  if (telemetry::enabled()) telemetry::count(SimMetrics::get().arrivals);
  sh.metrics->on_arrival(job, now_);
  servers_[target].handle_arrival(job, now_, sh.queue, power_policy_);
}

void ShardedCluster::requeue_killed(Shard& sh, const std::vector<Job>& killed) {
  for (const Job& j : killed) {
    if (faults_ != nullptr && faults_->schedule_retry(j, sh.clock)) {
      sh.metrics->on_retry();
      if (telemetry::enabled()) telemetry::count(SimMetrics::get().fault_retries);
    } else {
      sh.metrics->on_job_lost();
      if (telemetry::enabled()) telemetry::count(SimMetrics::get().fault_lost);
    }
  }
}

void ShardedCluster::handle_shard_event(Shard& sh, const Event& e) {
  ++sh.events;
  if (telemetry::enabled()) {
    const SimMetrics& m = SimMetrics::get();
    telemetry::count(m.events);
    if (e.type == EventType::kJobArrival) telemetry::count(m.arrivals);
  }
  switch (e.type) {
    case EventType::kJobArrival: {
      // Pre-routed arrival: target already chosen at load (e.server).
      const Job& job = jobs_[static_cast<std::size_t>(e.job)];
      sh.metrics->on_arrival(job, e.time);
      servers_[e.server].handle_arrival(job, e.time, sh.queue, power_policy_);
      break;
    }
    case EventType::kJobFinish:
      servers_[e.server].handle_job_finish(e.job, e.time, sh.queue, power_policy_, e.generation);
      break;
    case EventType::kWakeComplete:
      servers_[e.server].handle_wake_complete(e.time, sh.queue, power_policy_, e.generation);
      break;
    case EventType::kSleepComplete:
      servers_[e.server].handle_sleep_complete(e.time, sh.queue, power_policy_, e.generation);
      break;
    case EventType::kIdleTimeout:
      servers_[e.server].handle_idle_timeout(e.generation, e.time, sh.queue, power_policy_);
      break;
    case EventType::kServerCrash:
      if (telemetry::enabled()) telemetry::count(SimMetrics::get().fault_crashes);
      requeue_killed(sh, servers_[e.server].handle_crash(e.time));
      break;
    case EventType::kServerRecover:
      servers_[e.server].handle_recover(e.time);
      break;
    case EventType::kSpotEvict:
      if (telemetry::enabled()) telemetry::count(SimMetrics::get().fault_evictions);
      requeue_killed(sh, servers_[e.server].handle_eviction(e.time, sh.queue, power_policy_));
      break;
  }
}

void ShardedCluster::drain_shard(std::size_t shard, Time bound) {
  Shard& sh = shards_[shard];
  while (!sh.queue.empty() && sh.queue.top().time < bound) {
    const Event e = sh.queue.pop();
    if (e.time < sh.clock) throw std::logic_error("ShardedCluster: shard time went backwards");
    sh.clock = e.time;
    handle_shard_event(sh, e);
  }
}

void ShardedCluster::run() {
  if (cfg_.execution == ShardedClusterConfig::Execution::kLockstep) {
    while (step()) {
    }
    return;
  }
  run_parallel();
}

void ShardedCluster::run_until_completed(std::size_t n) {
  if (cfg_.execution == ShardedClusterConfig::Execution::kParallel) {
    throw std::logic_error("ShardedCluster::run_until_completed: lockstep mode only");
  }
  while (jobs_completed() < n && step()) {
  }
  if (power_policy_.has_staged_decisions()) {
    count_flush(FlushReason::kForced);
    power_policy_.flush_decisions();
  }
}

void ShardedCluster::run_parallel() {
  constexpr Time kInf = std::numeric_limits<Time>::infinity();
  const std::size_t n = shards_.size();

  // Window protocol: the coordinator publishes (generation, bound) under the
  // mutex; each worker drains its shard strictly below `bound` and reports
  // done. The mutex handshake orders every shard mutation before the
  // coordinator's cross-shard reads at the barrier (arrival routing sees a
  // fully quiesced cluster), and vice versa for the next window.
  std::mutex mu;
  std::condition_variable cv_work;
  std::condition_variable cv_done;
  std::uint64_t generation = 0;
  Time bound = 0.0;
  std::size_t done = 0;
  bool stop = false;
  std::vector<std::exception_ptr> errors(n);

  std::vector<std::thread> workers;
  workers.reserve(n);
  // Each worker owns one telemetry shard slab (no cross-thread contention on
  // metric cells) and a named trace track. The span shows each shard's busy
  // time inside every sync window.
  static const telemetry::SpanDef kDrainSpan("sim.shard_drain");
  for (std::size_t s = 0; s < n; ++s) {
    workers.emplace_back([&, s] {
      telemetry::set_thread_name("shard-" + std::to_string(s));
      telemetry::ShardScope scope(telemetry::global_registry().acquire_shard());
      std::uint64_t seen = 0;
      for (;;) {
        Time b = 0.0;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv_work.wait(lock, [&] { return stop || generation != seen; });
          if (stop) return;
          seen = generation;
          b = bound;
        }
        try {
          telemetry::Span span(kDrainSpan);
          drain_shard(s, b);
        } catch (...) {
          errors[s] = std::current_exception();
        }
        {
          std::lock_guard<std::mutex> lock(mu);
          ++done;
        }
        cv_done.notify_one();
      }
    });
  }

  std::exception_ptr failure;
  auto open_window = [&](Time b) {
    if (telemetry::enabled()) telemetry::count(SimMetrics::get().sync_windows);
    {
      std::lock_guard<std::mutex> lock(mu);
      bound = b;
      done = 0;
      ++generation;
    }
    cv_work.notify_all();
    {
      std::unique_lock<std::mutex> lock(mu);
      cv_done.wait(lock, [&] { return done == n; });
    }
    for (std::exception_ptr& e : errors) {
      if (e != nullptr && failure == nullptr) failure = std::move(e);
      e = nullptr;
    }
    return failure == nullptr;
  };

  if (pre_routed_) {
    // Fully independent shards: one unbounded window, zero barriers.
    open_window(kInf);
  } else {
    while (next_arrival_ < jobs_.size()) {
      const Time ta = jobs_[next_arrival_].arrival;
      if (!open_window(ta)) break;  // conservative lookahead: drain below ta
      now_ = std::max(now_, ta);
      while (next_arrival_ < jobs_.size() && jobs_[next_arrival_].arrival == ta) {
        deliver_arrival(jobs_[next_arrival_]);
        ++next_arrival_;
      }
    }
    if (failure == nullptr) open_window(kInf);
  }

  {
    std::lock_guard<std::mutex> lock(mu);
    stop = true;
  }
  cv_work.notify_all();
  for (std::thread& t : workers) t.join();
  if (failure != nullptr) std::rethrow_exception(failure);

  now_ = end_time();
  if (!finished_notified_) {
    finished_notified_ = true;
    allocation_.on_simulation_end(*this, now_);
  }
}

std::uint64_t ShardedCluster::events_processed() const noexcept {
  std::uint64_t n = 0;
  for (const Shard& sh : shards_) n += sh.events;
  return n;
}

Time ShardedCluster::end_time() const {
  Time t = now_;
  for (const Shard& sh : shards_) t = std::max(t, sh.clock);
  return t;
}

double ShardedCluster::energy_joules(Time t) const {
  double e = 0.0;
  for (const Shard& sh : shards_) e += sh.metrics->energy_joules(t);
  return e;
}

double ShardedCluster::jobs_in_system_integral(Time t) const {
  double v = 0.0;
  for (const Shard& sh : shards_) v += sh.metrics->jobs_in_system_integral(t);
  return v;
}

double ShardedCluster::reliability_integral(Time t) const {
  double v = 0.0;
  for (const Shard& sh : shards_) v += sh.metrics->reliability_integral(t);
  return v;
}

std::size_t ShardedCluster::jobs_arrived() const noexcept {
  std::size_t v = 0;
  for (const Shard& sh : shards_) v += sh.metrics->jobs_arrived();
  return v;
}

std::size_t ShardedCluster::jobs_completed() const noexcept {
  std::size_t v = 0;
  for (const Shard& sh : shards_) v += sh.metrics->jobs_completed();
  return v;
}

double ShardedCluster::mean_cpu_utilization() const {
  double total = 0.0;
  for (const Shard& sh : shards_) total += sh.metrics->cpu_used_sum();
  return total / static_cast<double>(servers_.size());
}

std::size_t ShardedCluster::servers_on() const {
  std::size_t v = 0;
  for (const Shard& sh : shards_) v += sh.metrics->servers_on();
  return v;
}

std::size_t ShardedCluster::servers_failed() const {
  std::size_t v = 0;
  for (const Shard& sh : shards_) v += sh.metrics->servers_failed();
  return v;
}

MetricsSnapshot ShardedCluster::snapshot() const {
  const Time t = end_time();
  MetricsSnapshot agg;
  agg.now = t;
  for (const Shard& sh : shards_) {
    const MetricsSnapshot s = sh.metrics->snapshot(t);
    agg.jobs_arrived += s.jobs_arrived;
    agg.jobs_completed += s.jobs_completed;
    agg.energy_joules += s.energy_joules;
    agg.accumulated_latency_s += s.accumulated_latency_s;
    agg.jobs_in_system += s.jobs_in_system;
    agg.reliability_penalty += s.reliability_penalty;
    agg.faults.crashes += s.faults.crashes;
    agg.faults.recoveries += s.faults.recoveries;
    agg.faults.evictions += s.faults.evictions;
    agg.faults.jobs_killed += s.faults.jobs_killed;
    agg.faults.bounces += s.faults.bounces;
    agg.faults.retries += s.faults.retries;
    agg.faults.jobs_lost += s.faults.jobs_lost;
    agg.faults.lost_cpu_seconds += s.faults.lost_cpu_seconds;
    agg.faults.downtime_s += s.faults.downtime_s;
  }
  agg.average_power_watts = t > 0.0 ? agg.energy_joules / t : 0.0;
  return agg;
}

}  // namespace hcrl::sim
