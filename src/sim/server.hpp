// A single physical server: FCFS job execution + power state machine.
//
// States and transitions (§III, Figs. 3-4):
//
//   Sleep --arrival--> Waking --(Ton)--> Active <--> Idle
//   Idle --timeout/immediate--> FallingAsleep --(Toff)--> Sleep
//   FallingAsleep + arrival: finish the transition, then wake (Fig. 4a).
//
// Jobs are queued FCFS; the head starts as soon as every resource component
// fits (no backfilling). A started job runs for exactly its duration.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "src/common/stats.hpp"
#include "src/sim/event_queue.hpp"
#include "src/sim/metrics.hpp"
#include "src/sim/power_model.hpp"
#include "src/sim/types.hpp"

namespace hcrl::sim {

class PowerPolicy;

enum class PowerState : std::uint8_t {
  kSleep,
  kWaking,         // sleep -> active transition (takes Ton)
  kActive,         // at least one job running
  kIdle,           // powered on, no jobs
  kFallingAsleep,  // active/idle -> sleep transition (takes Toff)
  kFailed,         // crash-failed (fault injection); draws no power
};

const char* to_string(PowerState s) noexcept;

struct ServerConfig {
  std::size_t num_resources = 3;
  PowerModel power;
  Time t_on = 30.0;
  Time t_off = 30.0;
  bool start_asleep = true;
  /// Utilization above which the hot-spot (reliability) penalty kicks in.
  double hotspot_threshold = 0.8;

  void validate() const;
};

class Server {
 public:
  Server(ServerId id, const ServerConfig& cfg, ClusterMetrics* metrics);

  // ---- event handlers (called by the Cluster engine) ----------------------
  void handle_arrival(const Job& job, Time now, EventQueue& queue, PowerPolicy& policy);
  /// The `generation` on finish/wake/sleep events carries the server's
  /// incarnation at scheduling time; a crash or eviction bumps it, so
  /// events scheduled before the fault arrive stale and are dropped.
  /// (Always 0 == 0 when fault injection is off — bit-identical behavior.)
  void handle_job_finish(JobId job, Time now, EventQueue& queue, PowerPolicy& policy,
                         std::uint64_t generation = 0);
  void handle_wake_complete(Time now, EventQueue& queue, PowerPolicy& policy,
                            std::uint64_t generation = 0);
  void handle_sleep_complete(Time now, EventQueue& queue, PowerPolicy& policy,
                             std::uint64_t generation = 0);
  void handle_idle_timeout(std::uint64_t generation, Time now, EventQueue& queue,
                           PowerPolicy& policy);

  // ---- fault injection (see src/sim/fault/fault.hpp) -----------------------
  /// Full-server crash: every running and queued job is revoked and
  /// returned (the engine routes them into the retry stream); pending
  /// finish/wake/sleep/timeout events go stale via the incarnation bump.
  /// No-op (empty return) when already failed.
  std::vector<Job> handle_crash(Time now);
  /// Repair completes: kFailed -> kSleep (cold boot; the next placement
  /// wakes it). No-op unless failed.
  void handle_recover(Time now);
  /// Spot revocation: running jobs are revoked and returned; queued jobs
  /// survive and may start immediately. No-op (empty return) when nothing
  /// is running.
  std::vector<Job> handle_eviction(Time now, EventQueue& queue, PowerPolicy& policy);

  // ---- views ---------------------------------------------------------------
  ServerId id() const noexcept { return id_; }
  PowerState power_state() const noexcept { return state_; }
  bool is_on() const noexcept { return state_ == PowerState::kActive || state_ == PowerState::kIdle; }
  bool failed() const noexcept { return state_ == PowerState::kFailed; }
  /// Bumped on every crash/eviction; stamps newly scheduled events.
  std::uint64_t incarnation() const noexcept { return incarnation_; }
  /// Utilization of one resource dimension (0 = CPU), in [0, 1].
  double utilization(std::size_t resource = 0) const { return used_[resource]; }
  const ResourceVector& used() const noexcept { return used_; }
  const ResourceVector& capacity() const noexcept { return capacity_; }
  ResourceVector available() const {
    ResourceVector avail = capacity_;
    avail.subtract(used_);
    return avail;
  }
  std::size_t queue_length() const noexcept { return queue_.size(); }
  /// Cheaper than queue_length() == 0: std::deque::size() is iterator
  /// arithmetic across its blocks, empty() one pointer compare.
  bool queue_empty() const noexcept { return queue_.empty(); }
  std::size_t jobs_on_server() const noexcept { return queue_.size() + running_.size(); }
  double power_watts() const noexcept { return power_.current(); }

  /// Exact integrals used by the local-tier RL reward (Eqn. 5).
  double power_integral(Time now) const { return power_.integral(now); }
  double queue_integral(Time now) const { return queue_len_.integral(now); }

  /// Time of the most recent job arrival at this server (-inf if none).
  Time last_arrival_time() const noexcept { return last_arrival_; }
  std::size_t total_arrivals() const noexcept { return total_arrivals_; }

  const ServerConfig& config() const noexcept { return cfg_; }

 private:
  struct RunningJob {
    Job job;
    Time start = 0.0;
  };

  void try_start_jobs(Time now, EventQueue& queue);
  void enter_idle(Time now, EventQueue& queue, PowerPolicy& policy);
  void begin_wake(Time now, EventQueue& queue);
  void begin_sleep(Time now, EventQueue& queue);
  void set_power(Time now, double watts);
  void refresh_power(Time now);
  void update_trackers(Time now);

  ServerId id_;
  ServerConfig cfg_;
  ClusterMetrics* metrics_;  // not owned; may be null in unit tests

  PowerState state_;
  ResourceVector used_;
  ResourceVector capacity_;
  std::deque<Job> queue_;
  std::vector<RunningJob> running_;
  std::uint64_t timeout_generation_ = 0;
  std::uint64_t incarnation_ = 0;
  Time failed_since_ = 0.0;

  common::TimeWeightedValue power_;
  common::TimeWeightedValue queue_len_;
  Time last_arrival_ = -1.0;
  std::size_t total_arrivals_ = 0;
};

}  // namespace hcrl::sim
