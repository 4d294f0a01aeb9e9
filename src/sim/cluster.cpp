#include "src/sim/cluster.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "src/sim/sim_telemetry.hpp"

namespace hcrl::sim {

namespace {

/// Throws std::invalid_argument unless every job is valid with `dims`
/// resources, arrivals are sorted, ids are unique and the trace fits
/// JobId's index range.
void validate_trace(const std::vector<Job>& jobs, std::size_t dims) {
  if (jobs.size() > static_cast<std::size_t>(std::numeric_limits<JobId>::max())) {
    throw std::invalid_argument("Cluster::load_jobs: trace exceeds JobId index range");
  }
  std::vector<JobId> ids;
  ids.reserve(jobs.size());
  Time prev = 0.0;
  for (const Job& j : jobs) {
    j.validate(dims);
    if (j.arrival < prev) throw std::invalid_argument("Cluster::load_jobs: not sorted by arrival");
    prev = j.arrival;
    ids.push_back(j.id);
  }
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    throw std::invalid_argument("Cluster::load_jobs: duplicate id");
  }
}

enum class EventSource : std::uint8_t { kNone, kArrival, kRetry, kHeap };

struct NextEvent {
  EventSource source = EventSource::kNone;
  Time time = 0.0;
};

/// The next event: the trace arrival at `cursor` (none once the cursor
/// passes the end), the head of `faults`' retry stream (none without an
/// injector or pending retry), or the top of `queue`. The earliest wins;
/// equal times go trace arrival, then retry, then heap.
NextEvent next_event(const std::vector<Job>& trace, std::size_t cursor,
                     const FaultInjector* faults, const EventQueue& queue) {
  NextEvent next;
  // A later source takes over only when strictly earlier, so ties keep the
  // earlier source in precedence order.
  auto consider = [&next](EventSource source, Time t) {
    if (next.source == EventSource::kNone || t < next.time) next = {source, t};
  };
  if (cursor < trace.size()) consider(EventSource::kArrival, trace[cursor].arrival);
  if (faults != nullptr && faults->has_pending_retry()) {
    consider(EventSource::kRetry, faults->next_retry_time());
  }
  if (!queue.empty()) consider(EventSource::kHeap, queue.top().time);
  return next;
}

}  // namespace

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
  validate_trace(jobs, cfg_.server.num_resources);
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

bool Cluster::step() {
  const NextEvent next = next_event(jobs_, next_arrival_, faults_, queue_);
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
}

void Cluster::handle(const Event& e) {
  switch (e.type) {
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

}  // namespace hcrl::sim
