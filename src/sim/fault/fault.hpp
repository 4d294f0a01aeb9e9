// Deterministic fault injection: seeded schedules of server crashes,
// recoveries and spot-eviction revocations, plus the bounded retry/backoff
// stream that re-submits killed work.
//
// Design notes (the determinism contract lives or dies here):
//
//  * A FaultPlan is generated *up front* from (seed, num_servers, horizon)
//    and is completely independent of simulator state. Per-server event
//    streams are derived from per-server SplitMix64 sub-seeds, so the plan
//    does not change when servers are added (existing streams are stable)
//    and generation order is irrelevant. The plan is sorted by
//    (time, server, kind) and injected as ordinary EventQueue events at
//    load time, before any runtime event, so fault events hold the lowest
//    sequence numbers: at equal timestamps they win against runtime events
//    and lose to trace arrivals (streamed from a cursor ahead of the heap;
//    see src/sim/arrivals.hpp) — on the serial engine and on every lockstep
//    shard count alike.
//
//  * Retries do NOT go through the event heap. They live in a dedicated
//    (time, seq) min-heap inside the FaultInjector, and both engines give
//    them a fixed precedence at equal timestamps: trace arrival, then
//    retry, then heap event. Because kills and bounces happen at globally
//    ordered points, the retry heap's insertion order — and therefore every
//    tie-break — is identical across engines and shard counts.
//
//  * Backoff is a pure function of (seed, job id, attempt): capped
//    exponential with deterministic jitter. Re-running a scenario replays
//    the exact same retry times.
#pragma once

#include <cstdint>
#include <queue>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "src/sim/event_queue.hpp"
#include "src/sim/types.hpp"

namespace hcrl::sim {

/// Fault model knobs (config keys `faults.*`; see src/core/README.md).
/// All mean times are in simulated seconds; 0 disables that fault class.
struct FaultConfig {
  /// Mean time between full-server crashes (exponential), per server.
  /// A crash revokes running AND queued jobs; the server goes kFailed.
  double mtbf_s = 0.0;
  /// Mean time to repair after a crash (exponential). Recovered servers
  /// come back cold (kSleep) and must be woken by the next placement.
  double mttr_s = 600.0;
  /// Mean time between spot-eviction revocations (exponential), per
  /// server. An eviction kills running jobs only; the server stays up.
  double evict_every_s = 0.0;
  /// Per-job retry budget; a job killed/bounced more than this is lost.
  std::size_t max_retries = 3;
  /// Retry delay: min(backoff_cap_s, backoff_base_s * 2^(attempt-1)),
  /// then scaled by a deterministic jitter in [1-j, 1+j).
  double backoff_base_s = 30.0;
  double backoff_cap_s = 600.0;
  double backoff_jitter = 0.25;
  /// Fault schedules are generated out to last-arrival + this padding, so
  /// work retried near the end of the trace still sees faults.
  double horizon_padding_s = 3600.0;
  /// Dedicated fault stream seed. 0 = derive from the trace seed (and the
  /// scenario seed, when set, derives this like the other sub-seeds).
  std::uint64_t seed = 0;

  bool enabled() const noexcept { return mtbf_s > 0.0 || evict_every_s > 0.0; }
  /// Throws std::invalid_argument on non-finite, negative or absurd values.
  void validate() const;
};

enum class FaultKind : std::uint8_t {
  kCrash,    // server fails; running + queued jobs revoked
  kRecover,  // repair completes; server returns cold (kSleep)
  kEvict,    // spot revocation; running jobs revoked, server stays up
};

const char* to_string(FaultKind kind) noexcept;

/// Map a plan entry onto the engines' event vocabulary.
EventType to_event_type(FaultKind kind) noexcept;

struct FaultEvent {
  Time time = 0.0;
  ServerId server = 0;
  FaultKind kind = FaultKind::kCrash;
};

/// The full, pre-materialized fault schedule for one run.
struct FaultPlan {
  std::vector<FaultEvent> events;  // sorted by (time, server, kind)

  /// Deterministically generate a plan. Crash/recover events come in pairs
  /// (every crash within the horizon gets its recovery, possibly past the
  /// horizon); evictions are an independent per-server renewal process.
  static FaultPlan generate(const FaultConfig& cfg, std::size_t num_servers, Time horizon);
};

/// Owns the plan plus the deterministic retry stream. One per run; shared
/// by the engine via install_faults(). Not thread-safe (lockstep engines
/// only — ShardedCluster rejects faults in kParallel mode).
class FaultInjector {
 public:
  FaultInjector(const FaultConfig& cfg, FaultPlan plan);
  /// Convenience: generate the plan from the config.
  FaultInjector(const FaultConfig& cfg, std::size_t num_servers, Time horizon);

  const FaultConfig& config() const noexcept { return cfg_; }
  const FaultPlan& plan() const noexcept { return plan_; }

  /// One pending re-submission. `job.arrival` is rewritten to the delivery
  /// time (allocators treat retries exactly like fresh arrivals);
  /// `job.submitted` keeps the original submission for latency accounting.
  struct Retry {
    Time time = 0.0;
    std::uint64_t seq = 0;  // insertion order; breaks equal-time ties
    Job job;
  };

  bool has_pending_retry() const noexcept { return !retries_.empty(); }
  /// Throws std::logic_error when no retry is pending.
  Time next_retry_time() const;
  Retry pop_retry();

  /// Schedule a bounded-backoff retry for a killed or bounced job. Returns
  /// false when the job exhausted its retry budget (the job is lost).
  bool schedule_retry(const Job& job, Time now);

  /// Deterministic capped-exponential backoff delay for (job, attempt);
  /// attempt counts from 1. Pure function of the config seed.
  double backoff_delay(JobId id, std::size_t attempt) const;

  /// Attempts recorded so far for a job (0 if never killed/bounced).
  std::size_t attempts(JobId id) const;

 private:
  struct RetryLater {
    bool operator()(const Retry& a, const Retry& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  FaultConfig cfg_;
  FaultPlan plan_;
  std::priority_queue<Retry, std::vector<Retry>, RetryLater> retries_;
  std::unordered_map<JobId, std::size_t> attempts_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace hcrl::sim
