#include "src/sim/server.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/sim/policies.hpp"

namespace hcrl::sim {
namespace {

Job make_job(JobId id, Time arrival, Time duration, double cpu) {
  Job j;
  j.id = id;
  j.arrival = arrival;
  j.duration = duration;
  j.demand = ResourceVector{cpu, cpu / 2.0, 0.01};
  return j;
}

ServerConfig test_config(bool asleep = true) {
  ServerConfig cfg;
  cfg.num_resources = 3;
  cfg.t_on = 30.0;
  cfg.t_off = 30.0;
  cfg.start_asleep = asleep;
  return cfg;
}

/// Drains the event queue for a single server under test, dispatching each
/// event to the right handler in time order. Returns the last event time.
Time drain(Server& server, EventQueue& queue, PowerPolicy& policy, Time until = 1e18) {
  Time now = 0.0;
  while (!queue.empty() && queue.top().time <= until) {
    const Event e = queue.pop();
    now = e.time;
    switch (e.type) {
      case EventType::kJobFinish: server.handle_job_finish(e.job, now, queue, policy); break;
      case EventType::kWakeComplete: server.handle_wake_complete(now, queue, policy); break;
      case EventType::kSleepComplete: server.handle_sleep_complete(now, queue, policy); break;
      case EventType::kIdleTimeout:
        server.handle_idle_timeout(e.generation, now, queue, policy);
        break;
      case EventType::kServerCrash:
      case EventType::kServerRecover:
      case EventType::kSpotEvict:
        break;  // fault events are injected by the cluster engine, not servers
    }
  }
  return now;
}

TEST(Server, StartsAsleepWithZeroPower) {
  ClusterMetrics metrics(1);
  Server s(0, test_config(), &metrics);
  EXPECT_EQ(s.power_state(), PowerState::kSleep);
  EXPECT_DOUBLE_EQ(s.power_watts(), 0.0);
  EXPECT_FALSE(s.is_on());
}

TEST(Server, StartsIdleWhenConfigured) {
  ClusterMetrics metrics(1);
  Server s(0, test_config(/*asleep=*/false), &metrics);
  EXPECT_EQ(s.power_state(), PowerState::kIdle);
  EXPECT_DOUBLE_EQ(s.power_watts(), 87.0);
}

TEST(Server, WakeDelayAddsToJobLatency) {
  ClusterMetrics metrics(1);
  Server s(0, test_config(), &metrics);
  EventQueue q;
  AlwaysOnPolicy policy;

  s.handle_arrival(make_job(1, 100.0, 60.0, 0.5), 100.0, q, policy);
  EXPECT_EQ(s.power_state(), PowerState::kWaking);
  EXPECT_DOUBLE_EQ(s.power_watts(), 145.0);  // transition power

  drain(s, q, policy);
  ASSERT_EQ(metrics.job_records().size(), 1u);
  const JobRecord& r = metrics.job_records()[0];
  EXPECT_DOUBLE_EQ(r.start, 130.0);    // arrival + Ton
  EXPECT_DOUBLE_EQ(r.finish, 190.0);   // start + duration
  EXPECT_DOUBLE_EQ(r.latency(), 90.0); // wake (30) + duration (60)
}

TEST(Server, FcfsHeadOfLineBlocking) {
  ClusterMetrics metrics(1);
  Server s(0, test_config(/*asleep=*/false), &metrics);
  EventQueue q;
  AlwaysOnPolicy policy;

  // Job 1 occupies 0.7 CPU for 100 s; job 2 (0.5) must wait; job 3 (0.2)
  // arrives later but FCFS forbids it to overtake job 2.
  s.handle_arrival(make_job(1, 0.0, 100.0, 0.7), 0.0, q, policy);
  s.handle_arrival(make_job(2, 1.0, 50.0, 0.5), 1.0, q, policy);
  s.handle_arrival(make_job(3, 2.0, 10.0, 0.2), 2.0, q, policy);
  EXPECT_EQ(s.running_count(), 1u);
  EXPECT_EQ(s.queue_length(), 2u);

  drain(s, q, policy);
  ASSERT_EQ(metrics.job_records().size(), 3u);
  // Jobs 2 and 3 both start when job 1 finishes at t=100.
  for (const auto& r : metrics.job_records()) {
    if (r.id == 2) { EXPECT_DOUBLE_EQ(r.start, 100.0); }
    if (r.id == 3) { EXPECT_DOUBLE_EQ(r.start, 100.0); }  // starts alongside job 2
  }
}

TEST(Server, ParallelExecutionWhenResourcesFit) {
  ClusterMetrics metrics(1);
  Server s(0, test_config(false), &metrics);
  EventQueue q;
  AlwaysOnPolicy policy;
  s.handle_arrival(make_job(1, 0.0, 100.0, 0.4), 0.0, q, policy);
  s.handle_arrival(make_job(2, 0.0, 100.0, 0.4), 0.0, q, policy);
  EXPECT_EQ(s.running_count(), 2u);
  EXPECT_EQ(s.queue_length(), 0u);
  EXPECT_NEAR(s.utilization(0), 0.8, 1e-12);
}

TEST(Server, ImmediateSleepAfterLastJob) {
  ClusterMetrics metrics(1);
  Server s(0, test_config(false), &metrics);
  EventQueue q;
  ImmediateSleepPolicy policy;
  s.handle_arrival(make_job(1, 0.0, 10.0, 0.3), 0.0, q, policy);
  drain(s, q, policy);
  EXPECT_EQ(s.power_state(), PowerState::kSleep);
  EXPECT_DOUBLE_EQ(s.power_watts(), 0.0);
}

TEST(Server, FixedTimeoutExpiresIntoSleep) {
  ClusterMetrics metrics(1);
  Server s(0, test_config(false), &metrics);
  EventQueue q;
  FixedTimeoutPolicy policy(60.0);
  s.handle_arrival(make_job(1, 0.0, 10.0, 0.3), 0.0, q, policy);
  // Job finishes at 10; timeout fires at 70; sleep complete at 100.
  drain(s, q, policy, 69.0);
  EXPECT_EQ(s.power_state(), PowerState::kIdle);
  drain(s, q, policy, 71.0);
  EXPECT_EQ(s.power_state(), PowerState::kFallingAsleep);
  drain(s, q, policy);
  EXPECT_EQ(s.power_state(), PowerState::kSleep);
}

TEST(Server, ArrivalCancelsPendingTimeout) {
  ClusterMetrics metrics(1);
  Server s(0, test_config(false), &metrics);
  EventQueue q;
  FixedTimeoutPolicy policy(60.0);
  s.handle_arrival(make_job(1, 0.0, 10.0, 0.3), 0.0, q, policy);
  drain(s, q, policy, 15.0);  // idle at t=10 with timeout pending at 70
  s.handle_arrival(make_job(2, 20.0, 10.0, 0.3), 20.0, q, policy);
  EXPECT_EQ(s.power_state(), PowerState::kActive);
  // The stale timeout at t=70 must be ignored (job 2 finishes at 30 -> new
  // timeout at 90 -> sleep at 90+30).
  drain(s, q, policy, 75.0);
  EXPECT_EQ(s.power_state(), PowerState::kIdle);
  drain(s, q, policy);
  EXPECT_EQ(s.power_state(), PowerState::kSleep);
}

TEST(Server, ArrivalDuringFallingAsleepWaitsFullCycle) {
  // Fig. 4(a): job arrives during Toff; the server must complete the
  // power-down and then wake, so the job waits (Toff remainder) + Ton.
  ClusterMetrics metrics(1);
  Server s(0, test_config(false), &metrics);
  EventQueue q;
  ImmediateSleepPolicy policy;
  s.handle_arrival(make_job(1, 0.0, 10.0, 0.3), 0.0, q, policy);
  drain(s, q, policy, 15.0);  // finished at 10, falling asleep until 40
  EXPECT_EQ(s.power_state(), PowerState::kFallingAsleep);
  s.handle_arrival(make_job(2, 20.0, 10.0, 0.3), 20.0, q, policy);
  EXPECT_EQ(s.power_state(), PowerState::kFallingAsleep);  // cannot abort
  drain(s, q, policy);
  ASSERT_EQ(metrics.job_records().size(), 2u);
  const JobRecord& r2 = metrics.job_records()[1];
  EXPECT_DOUBLE_EQ(r2.start, 70.0);  // 40 (sleep done) + 30 (wake)
}

TEST(Server, PowerAccountingForScriptedScenario) {
  // Idle server runs one job (0.5 CPU, 100 s), then sleeps immediately.
  ClusterMetrics metrics(1);
  Server s(0, test_config(false), &metrics);
  EventQueue q;
  ImmediateSleepPolicy policy;
  const PowerModel pm;

  s.handle_arrival(make_job(1, 50.0, 100.0, 0.5), 50.0, q, policy);
  drain(s, q, policy);
  // Segments: [0,50) idle 87 W; [50,150) P(0.5); [150,180) transition 145 W;
  // then sleep 0 W.
  const double expected =
      50.0 * 87.0 + 100.0 * pm.active_power(0.5) + 30.0 * 145.0;
  EXPECT_NEAR(s.energy_joules(200.0), expected, 1e-9);
  EXPECT_NEAR(metrics.energy_joules(200.0), expected, 1e-9);
}

TEST(Server, QueueIntegralTracksWaitingJobs) {
  ClusterMetrics metrics(1);
  Server s(0, test_config(false), &metrics);
  EventQueue q;
  AlwaysOnPolicy policy;
  s.handle_arrival(make_job(1, 0.0, 100.0, 0.8), 0.0, q, policy);
  s.handle_arrival(make_job(2, 10.0, 10.0, 0.8), 10.0, q, policy);  // waits 90 s
  drain(s, q, policy);
  EXPECT_NEAR(s.queue_integral(110.0), 90.0, 1e-9);
}

TEST(Server, HotspotPenaltyFiresAboveThreshold) {
  ClusterMetrics metrics(1);
  ServerConfig cfg = test_config(false);
  cfg.hotspot_threshold = 0.8;
  Server s(0, cfg, &metrics);
  EventQueue q;
  AlwaysOnPolicy policy;
  s.handle_arrival(make_job(1, 0.0, 10.0, 0.9), 0.0, q, policy);
  // Penalty rate = (0.9 - 0.8)^2 = 0.01 for 10 s.
  drain(s, q, policy);
  EXPECT_NEAR(metrics.reliability_integral(10.0), 0.1, 1e-9);
}

TEST(Server, FinishForUnknownJobThrows) {
  ClusterMetrics metrics(1);
  Server s(0, test_config(false), &metrics);
  EventQueue q;
  AlwaysOnPolicy policy;
  EXPECT_THROW(s.handle_job_finish(999, 1.0, q, policy), std::logic_error);
}

TEST(Server, NegativeTimeoutFromPolicyThrows) {
  class BadPolicy final : public PowerPolicy {
   public:
    double on_idle(const Server&, Time) override { return -1.0; }
    std::string name() const override { return "bad"; }
  };
  ClusterMetrics metrics(1);
  Server s(0, test_config(false), &metrics);
  EventQueue q;
  BadPolicy policy;
  s.handle_arrival(make_job(1, 0.0, 10.0, 0.3), 0.0, q, policy);
  const Event finish = q.pop();
  EXPECT_THROW(s.handle_job_finish(finish.job, finish.time, q, policy), std::invalid_argument);
}

TEST(Server, LastArrivalTimeVisibleToPolicyBeforeUpdate) {
  // The policy's on_arrival hook must see the *previous* arrival time so it
  // can compute inter-arrival gaps.
  class GapRecorder final : public PowerPolicy {
   public:
    double on_idle(const Server&, Time) override { return kNeverSleep; }
    void on_arrival(const Server& server, const Job&, Time now) override {
      if (server.last_arrival_time() >= 0.0) last_gap = now - server.last_arrival_time();
    }
    std::string name() const override { return "gap-recorder"; }
    double last_gap = -1.0;
  };
  ClusterMetrics metrics(1);
  Server s(0, test_config(false), &metrics);
  EventQueue q;
  GapRecorder policy;
  s.handle_arrival(make_job(1, 10.0, 5.0, 0.1), 10.0, q, policy);
  EXPECT_DOUBLE_EQ(policy.last_gap, -1.0);  // first arrival: no gap yet
  s.handle_arrival(make_job(2, 25.0, 5.0, 0.1), 25.0, q, policy);
  EXPECT_DOUBLE_EQ(policy.last_gap, 15.0);
  EXPECT_EQ(s.total_arrivals(), 2u);
}

TEST(Server, ConfigValidation) {
  ServerConfig cfg = test_config();
  cfg.num_resources = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = test_config();
  cfg.t_on = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = test_config();
  cfg.hotspot_threshold = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Server, PowerStateNames) {
  EXPECT_STREQ(to_string(PowerState::kSleep), "sleep");
  EXPECT_STREQ(to_string(PowerState::kWaking), "waking");
  EXPECT_STREQ(to_string(PowerState::kActive), "active");
  EXPECT_STREQ(to_string(PowerState::kIdle), "idle");
  EXPECT_STREQ(to_string(PowerState::kFallingAsleep), "falling-asleep");
}

}  // namespace
}  // namespace hcrl::sim
