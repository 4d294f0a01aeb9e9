#include "src/sim/cluster.hpp"

#include <optional>
#include <stdexcept>

#include "src/sim/sim_telemetry.hpp"

namespace hcrl::sim {

void ClusterConfig::validate() const {
  if (num_servers == 0) throw std::invalid_argument("ClusterConfig: need >= 1 server");
  server.validate();
}

Cluster::Cluster(const ClusterConfig& cfg, AllocationPolicy& allocation, PowerPolicy& power)
    : Cluster(cfg, std::vector<ServerConfig>(cfg.num_servers, cfg.server), allocation, power) {}

Cluster::Cluster(const ClusterConfig& cfg, std::vector<ServerConfig> per_server,
                 AllocationPolicy& allocation, PowerPolicy& power)
    : cfg_(cfg),
      allocation_(allocation),
      power_policy_(power),
      metrics_(cfg.num_servers, cfg.keep_job_records) {
  cfg_.validate();
  if (per_server.size() != cfg_.num_servers) {
    throw std::invalid_argument("Cluster: per-server config count != num_servers");
  }
  servers_.reserve(cfg_.num_servers);
  for (std::size_t i = 0; i < cfg_.num_servers; ++i) {
    if (per_server[i].num_resources != cfg_.server.num_resources) {
      throw std::invalid_argument("Cluster: all servers must share num_resources");
    }
    per_server[i].validate();
    servers_.emplace_back(i, per_server[i], &metrics_);
  }
  set_server_view({servers_.data(), servers_.size()});
}

void Cluster::install_faults(FaultInjector* faults) {
  if (jobs_loaded_) throw std::logic_error("Cluster::install_faults: jobs already loaded");
  if (faults != nullptr) {
    for (const FaultEvent& f : faults->plan().events) {
      if (f.server >= servers_.size()) {
        throw std::invalid_argument("Cluster::install_faults: plan targets server " +
                                    std::to_string(f.server) + " out of range");
      }
    }
  }
  faults_ = faults;
}

void Cluster::load_jobs(std::vector<Job> jobs) {
  if (jobs_loaded_) throw std::logic_error("Cluster::load_jobs: already loaded");
  validate_trace(jobs, cfg_.server.num_resources, "Cluster::load_jobs");
  jobs_ = std::move(jobs);
  jobs_loaded_ = true;
  // Trace arrivals stream from the cursor; fault-plan events are the first
  // heap entries, so at equal timestamps they win against runtime events.
  if (faults_ != nullptr) {
    for (const FaultEvent& f : faults_->plan().events) {
      queue_.push(f.time, to_event_type(f.kind), f.server);
    }
  }
}

NextEvent Cluster::peek_next() const {
  return next_event(jobs_, next_arrival_, faults_,
                    queue_.empty() ? std::nullopt : std::optional<Time>(queue_.top().time));
}

bool Cluster::step() {
  // Decision-epoch boundary: decisions staged via PowerPolicy::defer_idle
  // must be committed before any event that could observe their outcome —
  // a time advance (a staged timeout may schedule an event earlier than the
  // current heap top), any job arrival (the global tier's state encoding
  // reads every server's power state), or queue drain. Same-time non-arrival
  // events touch only their own server's state and the staged decisions touch
  // only theirs, so they commute with the staged requests and may extend the
  // epoch — that is where the cross-server batching comes from.
  // Fault-injected retries are re-arrivals, so for the barrier they count
  // exactly like arrival events (and a pending retry means the simulation
  // is not drained).
  NextEvent next = peek_next();
  if (power_policy_.has_staged_decisions() &&
      (next.source == EventSource::kNone || next.time != now_ || next.is_arrival())) {
    count_flush(next.source == EventSource::kNone ? FlushReason::kDrain
                : next.is_arrival()               ? FlushReason::kArrival
                                                  : FlushReason::kTimeAdvance);
    power_policy_.flush_decisions();  // may push events at times >= now_
    next = peek_next();
  }
  if (next.source == EventSource::kNone) {
    if (!finished_notified_) {
      finished_notified_ = true;
      allocation_.on_simulation_end(*this, now_);
    }
    return false;
  }
  if (next.time < now_) throw std::logic_error("Cluster: time went backwards");
  now_ = next.time;
  if (next.source == EventSource::kArrival) {
    dispatch_arrival(jobs_[next_arrival_++]);
  } else if (next.source == EventSource::kRetry) {
    dispatch_arrival(faults_->pop_retry().job);
  } else {
    handle(queue_.pop());
  }
  if (telemetry::enabled()) telemetry::count(SimMetrics::get().events);
  return true;
}

void Cluster::run() {
  while (step()) {
  }
}

void Cluster::run_until_completed(std::size_t n) {
  while (metrics_.jobs_completed() < n && step()) {
  }
  // The loop can exit with decisions still staged (the n-th completion may
  // land mid-epoch). Their outcomes are already fixed — only arrivals feed
  // the predictors, and none intervened — so committing here preserves the
  // (time, seq) order a longer run would have produced.
  if (power_policy_.has_staged_decisions()) {
    count_flush(FlushReason::kForced);
    power_policy_.flush_decisions();
  }
}

void Cluster::handle(const Event& e) {
  switch (e.type) {
    case EventType::kJobArrival:
      throw std::logic_error("Cluster: trace arrivals stream from the cursor, not the heap");
    case EventType::kJobFinish:
      servers_.at(e.server).handle_job_finish(e.job, now_, queue_, power_policy_, e.generation);
      break;
    case EventType::kWakeComplete:
      servers_.at(e.server).handle_wake_complete(now_, queue_, power_policy_, e.generation);
      break;
    case EventType::kSleepComplete:
      servers_.at(e.server).handle_sleep_complete(now_, queue_, power_policy_, e.generation);
      break;
    case EventType::kIdleTimeout:
      servers_.at(e.server).handle_idle_timeout(e.generation, now_, queue_, power_policy_);
      break;
    case EventType::kServerCrash:
      if (telemetry::enabled()) telemetry::count(SimMetrics::get().fault_crashes);
      requeue_killed(servers_.at(e.server).handle_crash(now_));
      break;
    case EventType::kServerRecover:
      servers_.at(e.server).handle_recover(now_);
      break;
    case EventType::kSpotEvict:
      if (telemetry::enabled()) telemetry::count(SimMetrics::get().fault_evictions);
      requeue_killed(servers_.at(e.server).handle_eviction(now_, queue_, power_policy_));
      break;
  }
}

void Cluster::dispatch_arrival(const Job& job) {
  const ServerId target = allocation_.select_server(*this, job);
  if (target >= servers_.size()) {
    throw std::logic_error("AllocationPolicy returned invalid server " + std::to_string(target));
  }
  if (faults_ != nullptr && servers_[target].failed()) {
    // Transient allocation failure: the placement raced a crash. The job
    // never enters the system; it bounces into the retry stream.
    metrics_.on_bounce();
    if (faults_->schedule_retry(job, now_)) {
      metrics_.on_retry();
      if (telemetry::enabled()) telemetry::count(SimMetrics::get().fault_retries);
    } else {
      metrics_.on_job_lost();
      if (telemetry::enabled()) telemetry::count(SimMetrics::get().fault_lost);
    }
    return;
  }
  metrics_.on_arrival(job, now_);
  servers_[target].handle_arrival(job, now_, queue_, power_policy_);
  if (telemetry::enabled()) telemetry::count(SimMetrics::get().arrivals);
}

void Cluster::requeue_killed(const std::vector<Job>& killed) {
  for (const Job& j : killed) {
    if (faults_ != nullptr && faults_->schedule_retry(j, now_)) {
      metrics_.on_retry();
      if (telemetry::enabled()) telemetry::count(SimMetrics::get().fault_retries);
    } else {
      metrics_.on_job_lost();
      if (telemetry::enabled()) telemetry::count(SimMetrics::get().fault_lost);
    }
  }
}

double Cluster::mean_cpu_utilization() const {
  return metrics_.cpu_used_sum() / static_cast<double>(servers_.size());
}

std::size_t Cluster::servers_on() const { return metrics_.servers_on(); }

double Cluster::mean_cpu_utilization_scan() const {
  double total = 0.0;
  for (const Server& s : servers_) total += s.utilization(0);
  return total / static_cast<double>(servers_.size());
}

std::size_t Cluster::servers_on_scan() const {
  std::size_t n = 0;
  for (const Server& s : servers_) {
    if (s.is_on()) ++n;
  }
  return n;
}

}  // namespace hcrl::sim
