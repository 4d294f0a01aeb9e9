#include "src/sim/server.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "src/sim/policies.hpp"

namespace hcrl::sim {

const char* to_string(PowerState s) noexcept {
  switch (s) {
    case PowerState::kSleep: return "sleep";
    case PowerState::kWaking: return "waking";
    case PowerState::kActive: return "active";
    case PowerState::kIdle: return "idle";
    case PowerState::kFallingAsleep: return "falling-asleep";
    case PowerState::kFailed: return "failed";
  }
  return "?";
}

void ServerConfig::validate() const {
  power.validate();
  if (num_resources == 0) throw std::invalid_argument("ServerConfig: need >= 1 resource");
  if (!(t_on >= 0.0 && std::isfinite(t_on)) || !(t_off >= 0.0 && std::isfinite(t_off))) {
    throw std::invalid_argument("ServerConfig: t_on and t_off must be finite and >= 0");
  }
  if (!(hotspot_threshold > 0.0 && hotspot_threshold <= 1.0)) {
    throw std::invalid_argument("ServerConfig: hotspot_threshold out of (0,1]");
  }
}

Server::Server(ServerId id, const ServerConfig& cfg, ClusterMetrics* metrics)
    : id_(id),
      cfg_(cfg),
      metrics_(metrics),
      state_(cfg.start_asleep ? PowerState::kSleep : PowerState::kIdle),
      used_(cfg.num_resources, 0.0),
      capacity_(cfg.num_resources, 1.0) {
  cfg_.validate();
  const double initial_watts =
      cfg_.start_asleep ? cfg_.power.sleep_watts : cfg_.power.active_power(0.0);
  power_.set(0.0, 0.0);
  queue_len_.set(0.0, 0.0);
  set_power(0.0, initial_watts);
  if (metrics_ != nullptr) metrics_->on_server_status(id_, is_on(), 0.0);
}

void Server::set_power(Time now, double watts) {
  power_.set(now, watts);
  if (metrics_ != nullptr) metrics_->on_power_change(id_, watts, now);
}

void Server::refresh_power(Time now) {
  switch (state_) {
    case PowerState::kSleep:
      set_power(now, cfg_.power.sleep_watts);
      break;
    case PowerState::kWaking:
    case PowerState::kFallingAsleep:
      set_power(now, cfg_.power.transition_watts);
      break;
    case PowerState::kActive:
    case PowerState::kIdle:
      set_power(now, cfg_.power.active_power(utilization(0)));
      break;
    case PowerState::kFailed:
      set_power(now, 0.0);  // dead servers draw nothing
      break;
  }
  if (metrics_ != nullptr) {
    const double over = std::max(0.0, utilization(0) - cfg_.hotspot_threshold);
    metrics_->on_reliability_change(id_, over * over, now);
    // Every is_on()/utilization transition funnels through refresh_power, so
    // reporting here keeps the O(1) cluster aggregates exact per event.
    metrics_->on_server_status(id_, is_on(), utilization(0));
  }
}

void Server::update_trackers(Time now) {
  queue_len_.set(now, static_cast<double>(queue_.size()));
}

void Server::handle_arrival(const Job& job, Time now, EventQueue& queue, PowerPolicy& policy) {
  job.validate(cfg_.num_resources);
  policy.on_arrival(*this, job, now);
  last_arrival_ = now;
  ++total_arrivals_;
  queue_.push_back(job);
  update_trackers(now);

  switch (state_) {
    case PowerState::kSleep:
      begin_wake(now, queue);
      break;
    case PowerState::kFallingAsleep:
      // Must finish powering down first; handle_sleep_complete re-wakes.
      break;
    case PowerState::kIdle:
      ++timeout_generation_;  // cancel any pending idle timeout
      state_ = PowerState::kActive;
      try_start_jobs(now, queue);
      break;
    case PowerState::kWaking:
      break;
    case PowerState::kActive:
      try_start_jobs(now, queue);
      break;
    case PowerState::kFailed:
      // The engine bounces arrivals targeting failed servers into the
      // retry stream before they reach the server.
      throw std::logic_error("Server: arrival at failed server");
  }
}

void Server::try_start_jobs(Time now, EventQueue& queue) {
  assert(state_ == PowerState::kActive);
  while (!queue_.empty()) {
    if (!available().fits(queue_.front().demand)) break;  // strict FCFS: no backfill
    Job job = std::move(queue_.front());
    queue_.pop_front();
    used_.add(job.demand);
    queue.push(now + job.duration, EventType::kJobFinish, id_, job.id, incarnation_);
    running_.push_back(RunningJob{std::move(job), now});
  }
  update_trackers(now);
  refresh_power(now);
}

void Server::handle_job_finish(JobId job, Time now, EventQueue& queue, PowerPolicy& policy,
                               std::uint64_t generation) {
  if (generation != incarnation_) return;  // job was revoked by a crash/eviction
  auto it = std::find_if(running_.begin(), running_.end(),
                         [job](const RunningJob& r) { return r.job.id == job; });
  if (it == running_.end()) throw std::logic_error("Server: finish for unknown job");
  used_.subtract(it->job.demand);
  used_.clamp(0.0, 1.0);  // absorb float noise from many add/subtract cycles

  if (metrics_ != nullptr) {
    JobRecord rec;
    rec.id = it->job.id;
    rec.server = id_;
    rec.arrival = it->job.submit_time();
    rec.start = it->start;
    rec.finish = now;
    metrics_->on_completion(rec, now);
  }
  *it = std::move(running_.back());
  running_.pop_back();

  try_start_jobs(now, queue);
  if (running_.empty() && queue_.empty()) {
    enter_idle(now, queue, policy);
  }
}

void Server::enter_idle(Time now, EventQueue& queue, PowerPolicy& policy) {
  assert(running_.empty() && queue_.empty());
  state_ = PowerState::kIdle;
  refresh_power(now);
  const double timeout = policy.on_idle(*this, now);
  if (timeout < 0.0) throw std::invalid_argument("PowerPolicy returned negative timeout");
  if (timeout == 0.0) {
    begin_sleep(now, queue);
  } else if (timeout < kNeverSleep) {
    ++timeout_generation_;
    queue.push(now + timeout, EventType::kIdleTimeout, id_, /*job=*/0, timeout_generation_);
  }
  // kNeverSleep: stay idle with no pending event.
}

void Server::begin_wake(Time now, EventQueue& queue) {
  assert(state_ == PowerState::kSleep);
  state_ = PowerState::kWaking;
  refresh_power(now);
  queue.push(now + cfg_.t_on, EventType::kWakeComplete, id_, /*job=*/0, incarnation_);
}

void Server::begin_sleep(Time now, EventQueue& queue) {
  assert(state_ == PowerState::kIdle);
  state_ = PowerState::kFallingAsleep;
  refresh_power(now);
  queue.push(now + cfg_.t_off, EventType::kSleepComplete, id_, /*job=*/0, incarnation_);
}

void Server::handle_wake_complete(Time now, EventQueue& queue, PowerPolicy& policy,
                                  std::uint64_t generation) {
  if (generation != incarnation_) return;  // transition revoked by a crash
  assert(state_ == PowerState::kWaking);
  state_ = PowerState::kActive;
  try_start_jobs(now, queue);
  if (running_.empty() && queue_.empty()) {
    // Possible if the only queued job was somehow invalidated; stay safe.
    enter_idle(now, queue, policy);
  }
}

void Server::handle_sleep_complete(Time now, EventQueue& queue, PowerPolicy& policy,
                                   std::uint64_t generation) {
  (void)policy;
  if (generation != incarnation_) return;  // transition revoked by a crash
  assert(state_ == PowerState::kFallingAsleep);
  state_ = PowerState::kSleep;
  refresh_power(now);
  if (!queue_.empty()) {
    // A job arrived during the power-down transition (Fig. 4a): the server
    // must complete the transition and immediately wake again.
    begin_wake(now, queue);
  }
}

void Server::handle_idle_timeout(std::uint64_t generation, Time now, EventQueue& queue,
                                 PowerPolicy& policy) {
  (void)policy;
  if (state_ != PowerState::kIdle || generation != timeout_generation_) return;  // stale
  begin_sleep(now, queue);
}

std::vector<Job> Server::handle_crash(Time now) {
  if (state_ == PowerState::kFailed) return {};  // no-op crash on a dead server
  std::vector<Job> killed;
  killed.reserve(running_.size() + queue_.size());
  for (RunningJob& r : running_) {
    if (metrics_ != nullptr) {
      metrics_->on_job_killed((now - r.start) * r.job.demand[0], now);
    }
    killed.push_back(std::move(r.job));
  }
  for (Job& j : queue_) {
    // Queued work lost no CPU progress, only wall time.
    if (metrics_ != nullptr) metrics_->on_job_killed(0.0, now);
    killed.push_back(std::move(j));
  }
  running_.clear();
  queue_.clear();
  used_ = ResourceVector(cfg_.num_resources, 0.0);
  ++incarnation_;         // invalidates pending finish/wake/sleep events
  ++timeout_generation_;  // and any pending idle timeout
  state_ = PowerState::kFailed;
  failed_since_ = now;
  update_trackers(now);
  refresh_power(now);
  if (metrics_ != nullptr) metrics_->on_crash(now);
  return killed;
}

void Server::handle_recover(Time now) {
  if (state_ != PowerState::kFailed) return;  // no crash happened (or double recover)
  state_ = PowerState::kSleep;  // cold boot: the next placement wakes it
  refresh_power(now);
  if (metrics_ != nullptr) metrics_->on_recovery(now - failed_since_, now);
}

std::vector<Job> Server::handle_eviction(Time now, EventQueue& queue, PowerPolicy& policy) {
  if (running_.empty()) return {};  // nothing to revoke (sleeping/idle/failed)
  assert(state_ == PowerState::kActive);
  std::vector<Job> killed;
  killed.reserve(running_.size());
  for (RunningJob& r : running_) {
    if (metrics_ != nullptr) {
      metrics_->on_job_killed((now - r.start) * r.job.demand[0], now);
    }
    used_.subtract(r.job.demand);
    killed.push_back(std::move(r.job));
  }
  running_.clear();
  used_.clamp(0.0, 1.0);
  ++incarnation_;  // invalidates the revoked jobs' pending finish events
  if (metrics_ != nullptr) metrics_->on_eviction(now);
  try_start_jobs(now, queue);  // queued jobs survive the revocation
  if (running_.empty() && queue_.empty()) {
    enter_idle(now, queue, policy);
  }
  return killed;
}

}  // namespace hcrl::sim
