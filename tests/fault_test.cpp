// Deterministic fault injection: plan generation, backoff/retry goldens,
// lost-work accounting invariants, and — the load-bearing properties — that
// fixed-seed faulty runs are bit-reproducible run to run and with telemetry
// on or off, and that equal-time events run arrival, then retry, then heap;
// plus the harness robustness seams (per-cell watchdog, crash-safe
// tournament journal resume).
#include "src/sim/fault/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/runner.hpp"
#include "src/core/scenario.hpp"
#include "src/nn/precision.hpp"
#include "src/policy/tournament.hpp"
#include "src/sim/cluster.hpp"
#include "src/telemetry/registry.hpp"

namespace hcrl {
namespace {

using core::ExperimentResult;
using core::Scenario;
using core::ScenarioRegistry;
using sim::FaultConfig;
using sim::FaultInjector;
using sim::FaultKind;
using sim::FaultPlan;

// ---- config validation ------------------------------------------------------

TEST(FaultConfig, ValidateRejectsAbsurdValues) {
  FaultConfig good;
  good.mtbf_s = 3600.0;
  EXPECT_NO_THROW(good.validate());

  auto expect_bad = [](auto&& mutate) {
    FaultConfig c;
    c.mtbf_s = 3600.0;
    mutate(c);
    EXPECT_THROW(c.validate(), std::invalid_argument);
  };
  expect_bad([](FaultConfig& c) { c.mtbf_s = -1.0; });
  expect_bad([](FaultConfig& c) { c.mtbf_s = std::nan(""); });
  expect_bad([](FaultConfig& c) { c.mttr_s = 0.0; });  // crashes on, repair off
  expect_bad([](FaultConfig& c) { c.evict_every_s = -0.5; });
  expect_bad([](FaultConfig& c) { c.backoff_base_s = -1.0; });
  expect_bad([](FaultConfig& c) { c.backoff_jitter = 1.0; });  // must be < 1
  expect_bad([](FaultConfig& c) { c.backoff_jitter = -0.1; });
  expect_bad([](FaultConfig& c) {
    c.backoff_base_s = 900.0;
    c.backoff_cap_s = 30.0;  // base exceeds cap
  });
  expect_bad([](FaultConfig& c) { c.max_retries = 2000000; });
  expect_bad([](FaultConfig& c) { c.horizon_padding_s = -1.0; });
}

// ---- plan generation --------------------------------------------------------

FaultConfig crashy_config() {
  FaultConfig c;
  c.mtbf_s = 600.0;
  c.mttr_s = 120.0;
  c.evict_every_s = 900.0;
  c.seed = 42;
  return c;
}

TEST(FaultPlan, GenerateIsDeterministicAndSorted) {
  const FaultPlan a = FaultPlan::generate(crashy_config(), 8, 7200.0);
  const FaultPlan b = FaultPlan::generate(crashy_config(), 8, 7200.0);
  ASSERT_FALSE(a.events.empty());
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].time, b.events[i].time);
    EXPECT_EQ(a.events[i].server, b.events[i].server);
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    if (i > 0) {
      const auto& p = a.events[i - 1];
      const auto& e = a.events[i];
      EXPECT_TRUE(p.time < e.time ||
                  (p.time == e.time &&
                   (p.server < e.server ||
                    (p.server == e.server && static_cast<int>(p.kind) <= static_cast<int>(e.kind)))))
          << "plan not sorted by (time, server, kind) at index " << i;
    }
  }
}

TEST(FaultPlan, EveryCrashGetsItsRecovery) {
  const FaultPlan plan = FaultPlan::generate(crashy_config(), 8, 7200.0);
  std::size_t crashes = 0, recoveries = 0, evictions = 0;
  for (const auto& e : plan.events) {
    switch (e.kind) {
      case FaultKind::kCrash: ++crashes; break;
      case FaultKind::kRecover: ++recoveries; break;
      case FaultKind::kEvict: ++evictions; break;
    }
  }
  EXPECT_GT(crashes, 0u);
  EXPECT_GT(evictions, 0u);
  EXPECT_EQ(crashes, recoveries);  // recoveries ship even past the horizon
}

TEST(FaultPlan, AddingServersKeepsExistingStreamsStable) {
  // Per-server sub-seeds: server k's schedule must not move when the
  // cluster grows.
  const FaultPlan small = FaultPlan::generate(crashy_config(), 4, 7200.0);
  const FaultPlan big = FaultPlan::generate(crashy_config(), 8, 7200.0);
  auto events_for = [](const FaultPlan& p, sim::ServerId s) {
    std::vector<sim::FaultEvent> out;
    for (const auto& e : p.events) {
      if (e.server == s) out.push_back(e);
    }
    return out;
  };
  for (sim::ServerId s = 0; s < 4; ++s) {
    const auto a = events_for(small, s);
    const auto b = events_for(big, s);
    ASSERT_EQ(a.size(), b.size()) << "server " << s;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].time, b[i].time);
      EXPECT_EQ(a[i].kind, b[i].kind);
    }
  }
}

TEST(FaultPlan, DisabledConfigYieldsEmptyPlan) {
  FaultConfig off;  // mtbf_s == evict_every_s == 0
  EXPECT_FALSE(off.enabled());
  EXPECT_TRUE(FaultPlan::generate(off, 8, 7200.0).events.empty());
  EXPECT_TRUE(FaultPlan::generate(crashy_config(), 0, 7200.0).events.empty());
  EXPECT_TRUE(FaultPlan::generate(crashy_config(), 8, 0.0).events.empty());
}

// ---- backoff goldens --------------------------------------------------------

TEST(FaultInjectorTest, BackoffDoublesThenCaps) {
  FaultConfig c = crashy_config();
  c.backoff_base_s = 10.0;
  c.backoff_cap_s = 100.0;
  c.backoff_jitter = 0.0;  // exact goldens
  const FaultInjector inj(c, FaultPlan{});
  EXPECT_DOUBLE_EQ(inj.backoff_delay(7, 1), 10.0);
  EXPECT_DOUBLE_EQ(inj.backoff_delay(7, 2), 20.0);
  EXPECT_DOUBLE_EQ(inj.backoff_delay(7, 3), 40.0);
  EXPECT_DOUBLE_EQ(inj.backoff_delay(7, 4), 80.0);
  EXPECT_DOUBLE_EQ(inj.backoff_delay(7, 5), 100.0);   // capped
  EXPECT_DOUBLE_EQ(inj.backoff_delay(7, 60), 100.0);  // 2^59 saturates at the cap
  EXPECT_THROW(inj.backoff_delay(7, 0), std::invalid_argument);
}

TEST(FaultInjectorTest, BackoffJitterIsBoundedAndReproducible) {
  FaultConfig c = crashy_config();
  c.backoff_base_s = 10.0;
  c.backoff_cap_s = 0.0;  // uncapped
  c.backoff_jitter = 0.25;
  const FaultInjector a(c, FaultPlan{});
  const FaultInjector b(c, FaultPlan{});
  for (sim::JobId id = 1; id <= 50; ++id) {
    for (std::size_t attempt = 1; attempt <= 3; ++attempt) {
      const double base = 10.0 * static_cast<double>(1u << (attempt - 1));
      const double d = a.backoff_delay(id, attempt);
      EXPECT_GE(d, base * 0.75);
      EXPECT_LT(d, base * 1.25);
      // Pure function of (seed, id, attempt): a fresh injector agrees.
      EXPECT_EQ(d, b.backoff_delay(id, attempt));
    }
  }
  // A different seed moves the jitter.
  FaultConfig c2 = c;
  c2.seed = 1337;
  const FaultInjector other(c2, FaultPlan{});
  EXPECT_NE(a.backoff_delay(1, 1), other.backoff_delay(1, 1));
}

TEST(FaultInjectorTest, ZeroBaseStillMovesTimeForward) {
  FaultConfig c = crashy_config();
  c.backoff_base_s = 0.0;
  c.backoff_jitter = 0.0;
  const FaultInjector inj(c, FaultPlan{});
  EXPECT_GT(inj.backoff_delay(1, 1), 0.0);
}

TEST(FaultInjectorTest, RetryBudgetExhaustsThenJobIsLost) {
  FaultConfig c = crashy_config();
  c.max_retries = 2;
  c.backoff_jitter = 0.0;
  FaultInjector inj(c, FaultPlan{});
  sim::Job job;
  job.id = 9;
  job.arrival = 100.0;
  job.duration = 5.0;
  EXPECT_EQ(inj.attempts(9), 0u);
  EXPECT_TRUE(inj.schedule_retry(job, 100.0));
  EXPECT_TRUE(inj.schedule_retry(job, 150.0));
  EXPECT_FALSE(inj.schedule_retry(job, 200.0));  // budget spent: lost
  EXPECT_EQ(inj.attempts(9), 3u);

  // The two accepted retries drain in (time, seq) order, arrival rewritten
  // to the delivery time and the original submission preserved.
  ASSERT_TRUE(inj.has_pending_retry());
  const auto first = inj.pop_retry();
  const auto second = inj.pop_retry();
  EXPECT_FALSE(inj.has_pending_retry());
  EXPECT_LT(first.time, second.time);
  EXPECT_EQ(first.job.submitted, 100.0);
  EXPECT_EQ(first.job.arrival, first.time);
  EXPECT_THROW(inj.pop_retry(), std::logic_error);
  EXPECT_THROW(inj.next_retry_time(), std::logic_error);
}

// ---- full-run properties ----------------------------------------------------

// Aggressive fault rates so a tiny trace sees plenty of crashes, evictions,
// bounces and lost jobs.
Scenario make_faulty(const std::string& name, std::size_t jobs) {
  Scenario s = ScenarioRegistry::builtin().make(name, jobs);
  FaultConfig& f = s.config.faults;
  f.mtbf_s = 900.0;
  f.mttr_s = 120.0;
  f.evict_every_s = 1500.0;
  f.max_retries = 3;
  f.backoff_base_s = 5.0;
  f.backoff_cap_s = 60.0;
  f.backoff_jitter = 0.25;
  f.seed = 77;
  return s;
}

// Bit-identical comparison (wall_seconds excluded: it measures this process,
// not the simulation).
void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.final_snapshot.now, b.final_snapshot.now);
  EXPECT_EQ(a.final_snapshot.jobs_arrived, b.final_snapshot.jobs_arrived);
  EXPECT_EQ(a.final_snapshot.jobs_completed, b.final_snapshot.jobs_completed);
  EXPECT_EQ(a.final_snapshot.energy_joules, b.final_snapshot.energy_joules);
  EXPECT_EQ(a.final_snapshot.accumulated_latency_s, b.final_snapshot.accumulated_latency_s);
  EXPECT_EQ(a.final_snapshot.average_power_watts, b.final_snapshot.average_power_watts);
  EXPECT_EQ(a.latency_p95_s, b.latency_p95_s);
  EXPECT_EQ(a.latency_p99_s, b.latency_p99_s);
  EXPECT_EQ(a.sla_violations, b.sla_violations);
  EXPECT_EQ(a.servers_on_at_end, b.servers_on_at_end);

  const sim::FaultCounters& fa = a.final_snapshot.faults;
  const sim::FaultCounters& fb = b.final_snapshot.faults;
  EXPECT_EQ(fa.crashes, fb.crashes);
  EXPECT_EQ(fa.recoveries, fb.recoveries);
  EXPECT_EQ(fa.evictions, fb.evictions);
  EXPECT_EQ(fa.jobs_killed, fb.jobs_killed);
  EXPECT_EQ(fa.bounces, fb.bounces);
  EXPECT_EQ(fa.retries, fb.retries);
  EXPECT_EQ(fa.jobs_lost, fb.jobs_lost);
  EXPECT_EQ(fa.lost_cpu_seconds, fb.lost_cpu_seconds);
  EXPECT_EQ(fa.downtime_s, fb.downtime_s);
}

TEST(FaultRun, LostWorkAccountingInvariantsHold) {
  const std::size_t jobs = 400;
  const ExperimentResult r = core::run_scenario(make_faulty("tiny/least-loaded", jobs));
  const sim::MetricsSnapshot& s = r.final_snapshot;
  const sim::FaultCounters& f = s.faults;

  // The aggressive schedule must actually exercise the machinery.
  EXPECT_GT(f.crashes, 0u);
  EXPECT_GT(f.jobs_killed + f.bounces, 0u);

  // Conservation laws (exact, engine-independent):
  //  * every crash within the horizon is repaired;
  EXPECT_EQ(f.crashes, f.recoveries);
  //  * every kill/bounce either schedules a retry or drops the job;
  EXPECT_EQ(f.jobs_killed + f.bounces, f.retries + f.jobs_lost);
  //  * deliveries = trace arrivals + retries, minus the bounced ones;
  EXPECT_EQ(s.jobs_arrived, jobs + f.retries - f.bounces);
  //  * every delivered job either completes or is killed again;
  EXPECT_EQ(s.jobs_arrived, s.jobs_completed + f.jobs_killed);
  //  * every trace job eventually completes or is lost for good.
  EXPECT_EQ(s.jobs_completed + f.jobs_lost, jobs);

  EXPECT_GE(f.lost_cpu_seconds, 0.0);
  if (f.recoveries > 0) {
    EXPECT_GT(f.mttr_s(), 0.0);
    EXPECT_NEAR(f.mttr_s(), f.downtime_s / static_cast<double>(f.recoveries), 1e-12);
  }
}

TEST(FaultRun, FixedSeedIsBitReproducibleAtBothPrecisions) {
  for (const nn::Precision p : {nn::Precision::kF64, nn::Precision::kF32}) {
    for (const char* name : {"tiny/least-loaded", "tiny/hierarchical"}) {
      Scenario s = make_faulty(name, std::string(name) == "tiny/hierarchical" ? 150 : 300);
      s.config.precision = p;
      const ExperimentResult a = core::run_scenario(s);
      const ExperimentResult b = core::run_scenario(s);
      SCOPED_TRACE(std::string(name) + " @ " + nn::to_string(p));
      expect_identical(a, b);
      EXPECT_GT(a.final_snapshot.faults.crashes, 0u);
    }
  }
}

// ---- equal-time order: trace arrival, then retry, then heap -----------------

// Logs every routing decision as "<t> arrival|retry <id>", with " s0-down"
// while server 0 is crash-failed. Trace jobs go to server id-1, retries to 2.
class RoutingRecorder final : public sim::AllocationPolicy {
 public:
  explicit RoutingRecorder(std::vector<std::string>& log) : log_(log) {}
  sim::ServerId select_server(const sim::ClusterView& cluster, const sim::Job& job) override {
    const bool retry = job.submitted >= 0.0;
    log_.push_back(std::to_string(static_cast<int>(cluster.now())) +
                   (retry ? " retry " : " arrival ") + std::to_string(job.id) +
                   (cluster.server(0).failed() ? " s0-down" : ""));
    return retry ? 2 : static_cast<sim::ServerId>(job.id - 1);
  }
  std::string name() const override { return "routing-recorder"; }

 private:
  std::vector<std::string>& log_;
};

// Logs every idle entry as "<t> idle s<server>" and keeps the server on.
class IdleRecorder final : public sim::PowerPolicy {
 public:
  explicit IdleRecorder(std::vector<std::string>& log) : log_(log) {}
  double on_idle(const sim::Server& server, sim::Time now) override {
    log_.push_back(std::to_string(static_cast<int>(now)) + " idle s" +
                   std::to_string(server.id()));
    return sim::kNeverSleep;
  }
  std::string name() const override { return "idle-recorder"; }

 private:
  std::vector<std::string>& log_;
};

sim::Job order_job(sim::JobId id, sim::Time arrival, sim::Time duration) {
  sim::Job j;
  j.id = id;
  j.arrival = arrival;
  j.duration = duration;
  j.demand = sim::ResourceVector{0.2, 0.2, 0.01};
  return j;
}

// Integer times make three sources collide at t = 20: trace job 3 arrives,
// job 1 (killed by the t = 10 crash, backoff exactly 10 s) is redelivered,
// and the heap holds server 0's recovery and job 2's finish on server 1.
TEST(FaultRun, EqualTimeOrderIsArrivalRetryHeap) {
  std::vector<std::string> log;
  RoutingRecorder alloc(log);
  IdleRecorder power(log);
  sim::ClusterConfig c;
  c.num_servers = 3;
  c.server.start_asleep = false;  // idle at t = 0: no wake transitions
  sim::Cluster engine(c, alloc, power);

  FaultConfig f;
  f.backoff_base_s = 10.0;
  f.backoff_jitter = 0.0;
  FaultPlan plan;
  plan.events = {{10.0, 0, FaultKind::kCrash}, {20.0, 0, FaultKind::kRecover}};
  FaultInjector faults(f, plan);
  engine.install_faults(&faults);
  engine.load_jobs({order_job(1, 0.0, 100.0), order_job(2, 0.0, 20.0), order_job(3, 20.0, 5.0)});
  engine.run();
  EXPECT_EQ(engine.snapshot().jobs_completed, 3u);
  EXPECT_EQ(engine.snapshot().faults.retries, 1u);

  const std::vector<std::string> expected = {
      "0 arrival 1",
      "0 arrival 2",
      "20 arrival 3 s0-down",  // trace arrival first: the recovery has not run
      "20 retry 1 s0-down",    // then the retry, still before any heap event
      "20 idle s1",            // then the heap: recovery, then job 2's finish
      "120 idle s2",
  };
  EXPECT_EQ(log, expected);
}

TEST(FaultRun, TelemetryToggleDoesNotPerturbResults) {
  const bool was_enabled = telemetry::enabled();
  const Scenario s = make_faulty("tiny/least-loaded", 300);
  telemetry::set_enabled(false);
  const ExperimentResult off = core::run_scenario(s);
  telemetry::set_enabled(true);
  const ExperimentResult on = core::run_scenario(s);
  telemetry::set_enabled(was_enabled);
  expect_identical(off, on);
}

TEST(FaultRun, FaultyRegistryScenariosExistAndStayFaultFreeElsewhere) {
  const auto& r = ScenarioRegistry::builtin();
  EXPECT_TRUE(r.contains("tiny/least-loaded-faulty"));
  EXPECT_TRUE(r.contains("tiny/hierarchical-faulty"));
  EXPECT_TRUE(r.contains("table1/m30/hierarchical-faulty"));
  EXPECT_TRUE(
      r.make("tiny/round-robin-faulty", 100).materialized().faults.enabled());
  // The plain scenarios remain fault-free: faults are opt-in per scenario.
  EXPECT_FALSE(r.make("tiny/round-robin", 100).materialized().faults.enabled());
}

// ---- watchdog ---------------------------------------------------------------

TEST(Watchdog, HungCellBecomesPerCellErrorWhileRestOfGridCompletes) {
  Scenario hung = ScenarioRegistry::builtin().make("tiny/least-loaded", 2000);
  hung.name = "hung-cell";
  hung.config.watchdog_s = 1e-6;  // trips at the first 64-event check
  Scenario fine = ScenarioRegistry::builtin().make("tiny/least-loaded", 200);

  const auto outcomes = core::run_outcomes({hung, fine}, 1);
  ASSERT_EQ(outcomes.size(), 2u);
  ASSERT_FALSE(outcomes[0].ok());
  EXPECT_TRUE(outcomes[1].ok());
  try {
    std::rethrow_exception(outcomes[0].error);
    FAIL() << "expected the watchdog to throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("watchdog"), std::string::npos) << msg;
    EXPECT_NE(msg.find("hung-cell"), std::string::npos) << msg;
  }
}

TEST(Watchdog, NegativeDeadlineFailsValidation) {
  Scenario s = ScenarioRegistry::builtin().make("tiny/least-loaded", 100);
  s.config.watchdog_s = -1.0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

// ---- tournament journal -----------------------------------------------------

policy::TournamentOptions journal_grid(const std::string& journal_path) {
  policy::TournamentOptions opts;
  opts.combos.push_back(policy::combo_from_string("round-robin+always-on"));
  opts.combos.push_back(policy::combo_from_string("least-loaded+immediate-sleep"));
  opts.scenario_names = {"tiny/least-loaded-faulty", "tiny/round-robin"};
  opts.jobs = 150;
  opts.journal_path = journal_path;
  return opts;
}

std::string leaderboard_csv(const policy::TournamentResult& r, policy::LeaderboardColumns cols) {
  std::ostringstream os;
  policy::write_leaderboard_csv(os, r, cols);
  return os.str();
}

std::string cells_csv(const policy::TournamentResult& r, policy::LeaderboardColumns cols) {
  std::ostringstream os;
  policy::write_cells_csv(os, r, cols);
  return os.str();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(TournamentJournal, ResumeSkipsFinishedCellsByteIdentically) {
  const std::string path = testing::TempDir() + "fault_test_journal.csv";
  std::remove(path.c_str());

  const auto first = policy::run_tournament(journal_grid(path), 1);
  const std::string journal_after_first = slurp(path);
  // magic line + one record per (ok) cell
  ASSERT_EQ(static_cast<std::size_t>(
                std::count(journal_after_first.begin(), journal_after_first.end(), '\n')),
            1u + first.cells.size());

  // Rerunning the same grid against the same journal recomputes nothing:
  // even the timing columns (wall_seconds) come back byte-identical, which
  // only happens when results are reconstructed from the journal.
  const auto resumed = policy::run_tournament(journal_grid(path), 1);
  EXPECT_EQ(leaderboard_csv(resumed, policy::LeaderboardColumns::kWithTiming),
            leaderboard_csv(first, policy::LeaderboardColumns::kWithTiming));
  EXPECT_EQ(cells_csv(resumed, policy::LeaderboardColumns::kWithTiming),
            cells_csv(first, policy::LeaderboardColumns::kWithTiming));
  // Nothing new was appended.
  EXPECT_EQ(slurp(path), journal_after_first);

  // And the journaled results match a journal-free run on the deterministic
  // columns (the journal changes provenance, never values).
  auto fresh_opts = journal_grid("");
  const auto fresh = policy::run_tournament(fresh_opts, 1);
  EXPECT_EQ(leaderboard_csv(resumed, policy::LeaderboardColumns::kDeterministic),
            leaderboard_csv(fresh, policy::LeaderboardColumns::kDeterministic));

  std::remove(path.c_str());
}

TEST(TournamentJournal, TruncatedTrailingRecordIsIgnoredAndRepaired) {
  const std::string path = testing::TempDir() + "fault_test_journal_trunc.csv";
  std::remove(path.c_str());

  const auto full = policy::run_tournament(journal_grid(path), 1);
  const std::string intact = slurp(path);

  // Chop the journal mid-way through its final record: the run was killed
  // while writing. The loader must keep the complete records and re-run
  // only the rest.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << intact.substr(0, intact.size() - 25);
  }
  const auto resumed = policy::run_tournament(journal_grid(path), 1);
  EXPECT_EQ(leaderboard_csv(resumed, policy::LeaderboardColumns::kDeterministic),
            leaderboard_csv(full, policy::LeaderboardColumns::kDeterministic));
  // The repaired journal ends complete again: a second resume recomputes
  // nothing and appends nothing.
  const std::string repaired = slurp(path);
  const auto again = policy::run_tournament(journal_grid(path), 1);
  EXPECT_EQ(slurp(path), repaired);
  EXPECT_EQ(cells_csv(again, policy::LeaderboardColumns::kWithTiming),
            cells_csv(resumed, policy::LeaderboardColumns::kWithTiming));

  std::remove(path.c_str());
}

TEST(TournamentJournal, ForeignFileIsRejectedNotSilentlyOverwritten) {
  const std::string path = testing::TempDir() + "fault_test_not_a_journal.csv";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "scenario,combo,energy\n";  // some other CSV
  }
  EXPECT_THROW(policy::run_tournament(journal_grid(path), 1), std::invalid_argument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hcrl
