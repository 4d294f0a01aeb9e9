#include "src/core/local_tier.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/sim/cluster.hpp"

namespace hcrl::core {
namespace {

LocalPowerManagerOptions small_opts(std::size_t servers = 2) {
  LocalPowerManagerOptions o;
  o.num_servers = servers;
  o.predictor = "last-value";  // deterministic, fast
  o.agent.epsilon = rl::EpsilonSchedule::constant(0.0);
  return o;
}

// Deliver every event scheduled before `until` to the one server.
void drain_until(sim::Server& server, sim::EventQueue& queue, RlPowerManager& mgr, double until) {
  while (!queue.empty() && queue.top().time < until) {
    const sim::Event e = queue.pop();
    switch (e.type) {
      case sim::EventType::kJobFinish:
        server.handle_job_finish(e.job, e.time, queue, mgr);
        break;
      case sim::EventType::kWakeComplete:
        server.handle_wake_complete(e.time, queue, mgr);
        break;
      case sim::EventType::kSleepComplete:
        server.handle_sleep_complete(e.time, queue, mgr);
        break;
      case sim::EventType::kIdleTimeout:
        server.handle_idle_timeout(e.generation, e.time, queue, mgr);
        break;
      case sim::EventType::kServerCrash:
      case sim::EventType::kServerRecover:
      case sim::EventType::kSpotEvict:
        break;  // not produced by a single fault-free server
    }
  }
}

TEST(LocalPowerManagerOptions, Validation) {
  EXPECT_NO_THROW(small_opts().validate());
  auto o = small_opts();
  o.w = 1.5;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = small_opts();
  o.timeout_actions = {30.0};  // missing the mandatory 0
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = small_opts();
  o.timeout_actions = {};
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = small_opts();
  o.interarrival_bins = {60.0, 30.0};  // unsorted
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = small_opts();
  o.num_servers = 0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
}

TEST(RlPowerManager, DiscretizeUsesBinEdges) {
  RlPowerManager mgr(small_opts());
  // Default bins: {30, 60, 120, 300, 900, 3600} -> 7 states.
  EXPECT_EQ(mgr.discretize(5.0), 0u);
  EXPECT_EQ(mgr.discretize(30.0), 1u);
  EXPECT_EQ(mgr.discretize(59.0), 1u);
  EXPECT_EQ(mgr.discretize(200.0), 3u);
  EXPECT_EQ(mgr.discretize(10000.0), 6u);
}

TEST(RlPowerManager, OnIdleReturnsActionFromList) {
  RlPowerManager mgr(small_opts());
  sim::ServerConfig cfg;
  cfg.start_asleep = false;
  sim::ClusterMetrics metrics(2);
  sim::Server server(0, cfg, &metrics);
  const double timeout = mgr.on_idle(server, 100.0);
  const auto& actions = mgr.options().timeout_actions;
  EXPECT_NE(std::find(actions.begin(), actions.end(), timeout), actions.end());
  EXPECT_EQ(mgr.decisions(0), 1u);
}

TEST(RlPowerManager, SharedTableIsSharedAcrossServers) {
  auto o = small_opts(3);
  o.shared_table = true;
  RlPowerManager mgr(o);
  EXPECT_EQ(&mgr.agent(0), &mgr.agent(1));
  EXPECT_EQ(&mgr.agent(1), &mgr.agent(2));
}

TEST(RlPowerManager, PerServerTablesAreIndependentWhenConfigured) {
  auto o = small_opts(3);
  o.shared_table = false;
  RlPowerManager mgr(o);
  EXPECT_NE(&mgr.agent(0), &mgr.agent(1));
}

TEST(RlPowerManager, SojournClosesOnArrivalAndUpdatesQ) {
  auto o = small_opts(1);
  RlPowerManager mgr(o);
  sim::ServerConfig cfg;
  cfg.start_asleep = false;
  sim::ClusterMetrics metrics(1);
  sim::Server server(0, cfg, &metrics);
  sim::EventQueue queue;

  // Feed an arrival so the predictor has data, run the job, idle at t=20.
  sim::Job j1;
  j1.id = 1;
  j1.arrival = 10.0;
  j1.duration = 10.0;
  j1.demand = sim::ResourceVector{0.2, 0.1, 0.01};
  server.handle_arrival(j1, 10.0, queue, mgr);
  const sim::Event finish = queue.pop();
  server.handle_job_finish(finish.job, finish.time, queue, mgr);  // idles; decision made
  EXPECT_EQ(mgr.decisions(0), 1u);

  // Next arrival closes the sojourn: exactly one Q-table update must land.
  std::size_t visits_before = 0;
  for (std::size_t s = 0; s < mgr.agent(0).n_states(); ++s) {
    for (std::size_t a = 0; a < mgr.agent(0).n_actions(); ++a) {
      visits_before += mgr.agent(0).visits(s, a);
    }
  }
  EXPECT_EQ(visits_before, 0u);
  sim::Job j2 = j1;
  j2.id = 2;
  j2.arrival = 80.0;
  server.handle_arrival(j2, 80.0, queue, mgr);
  std::size_t visits_after = 0;
  for (std::size_t s = 0; s < mgr.agent(0).n_states(); ++s) {
    for (std::size_t a = 0; a < mgr.agent(0).n_actions(); ++a) {
      visits_after += mgr.agent(0).visits(s, a);
    }
  }
  EXPECT_EQ(visits_after, 1u);
}

TEST(RlPowerManager, LearningOffFreezesTable) {
  auto o = small_opts(1);
  RlPowerManager mgr(o);
  mgr.set_learning(false);
  sim::ServerConfig cfg;
  cfg.start_asleep = false;
  sim::ClusterMetrics metrics(1);
  sim::Server server(0, cfg, &metrics);
  sim::EventQueue queue;
  sim::Job j;
  j.id = 1;
  j.arrival = 0.0;
  j.duration = 5.0;
  j.demand = sim::ResourceVector{0.2, 0.1, 0.01};
  server.handle_arrival(j, 0.0, queue, mgr);
  const sim::Event finish = queue.pop();
  server.handle_job_finish(finish.job, finish.time, queue, mgr);
  sim::Job j2 = j;
  j2.id = 2;
  server.handle_arrival(j2, 100.0, queue, mgr);
  std::size_t visits = 0;
  for (std::size_t s = 0; s < mgr.agent(0).n_states(); ++s) {
    for (std::size_t a = 0; a < mgr.agent(0).n_actions(); ++a) {
      visits += mgr.agent(0).visits(s, a);
    }
  }
  EXPECT_EQ(visits, 0u);
}

// "Frozen" freezes the Q-table, not the workload predictor: with learning
// off, an LSTM predictor still trains on the gaps it observes (so frozen
// cells still pay for LSTM training).
TEST(RlPowerManager, LearningOffStillTrainsLstmPredictor) {
  auto o = small_opts(1);
  o.predictor = "lstm";
  o.lstm.lookback = 3;
  o.lstm.hidden_units = 4;
  o.lstm.train_interval = 2;
  o.lstm.train_windows = 1;
  RlPowerManager mgr(o);
  mgr.set_learning(false);
  const auto* lstm = dynamic_cast<const LstmPredictor*>(&mgr.predictor(0));
  ASSERT_NE(lstm, nullptr);
  EXPECT_LT(lstm->last_training_loss(), 0.0);  // untrained

  sim::ServerConfig cfg;
  cfg.start_asleep = false;
  sim::ClusterMetrics metrics(1);
  sim::Server server(0, cfg, &metrics);
  sim::EventQueue queue;
  for (int i = 0; i < 12; ++i) {
    sim::Job j;
    j.id = static_cast<sim::JobId>(i + 1);
    j.arrival = 100.0 * i;
    j.duration = 5.0;
    j.demand = sim::ResourceVector{0.2, 0.1, 0.01};
    server.handle_arrival(j, j.arrival, queue, mgr);  // closes the previous sojourn
    drain_until(server, queue, mgr, j.arrival + 100.0);  // finishes, idles, decides
  }
  EXPECT_EQ(mgr.decisions(0), 12u);

  std::size_t visits = 0;
  for (std::size_t s = 0; s < mgr.agent(0).n_states(); ++s) {
    for (std::size_t a = 0; a < mgr.agent(0).n_actions(); ++a) {
      visits += mgr.agent(0).visits(s, a);
    }
  }
  EXPECT_EQ(visits, 0u);
  EXPECT_EQ(lstm->observations(), 11u);
  EXPECT_GE(lstm->last_training_loss(), 0.0);
}

// Behavioural learning test: with deterministic periodic arrivals whose gap
// is far beyond the sleep break-even, the manager should learn to shut down
// immediately (or nearly so) in the corresponding state; with very short
// gaps it should learn to stay up.
TEST(RlPowerManager, LearnsGapAppropriateTimeouts) {
  auto run_gaps = [](double gap) {
    LocalPowerManagerOptions o;
    o.num_servers = 1;
    o.predictor = "last-value";
    o.agent.epsilon = rl::EpsilonSchedule::exponential(0.8, 0.0, 40);
    o.agent.learning_rate = 0.2;
    o.w = 0.5;
    RlPowerManager mgr(o);
    sim::ServerConfig cfg;
    cfg.start_asleep = false;
    sim::ClusterMetrics metrics(1);
    sim::Server server(0, cfg, &metrics);
    sim::EventQueue queue;

    double t = 0.0;
    for (int i = 0; i < 400; ++i) {
      sim::Job j;
      j.id = i + 1;
      j.arrival = t;
      j.duration = 5.0;
      j.demand = sim::ResourceVector{0.2, 0.1, 0.01};
      server.handle_arrival(j, t, queue, mgr);
      // Drain everything scheduled before the next arrival.
      t += gap;
      drain_until(server, queue, mgr, t);
    }
    // Greedy timeout in the state corresponding to the (perfectly
    // predicted) gap.
    const std::size_t state = mgr.discretize(gap);
    const std::size_t best = mgr.agent(0).greedy_action(state);
    return mgr.options().timeout_actions[best];
  };

  // Gap of 2 hours: sleeping immediately is clearly optimal.
  EXPECT_DOUBLE_EQ(run_gaps(7200.0), 0.0);
  // Gap of 40 s (under the ~100 s break-even): should NOT sleep immediately.
  EXPECT_GT(run_gaps(40.0), 0.0);
}

TEST(RlPowerManager, AgentAccessorsValidateServer) {
  RlPowerManager mgr(small_opts(2));
  EXPECT_THROW(mgr.agent(5), std::out_of_range);
  EXPECT_THROW(mgr.predictor(5), std::out_of_range);
  EXPECT_THROW(mgr.decisions(5), std::out_of_range);
}

}  // namespace
}  // namespace hcrl::core
