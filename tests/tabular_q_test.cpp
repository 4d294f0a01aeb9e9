#include "src/rl/tabular_q.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "src/rl/smdp.hpp"

namespace hcrl::rl {
namespace {

TabularQAgent::Options opts(double alpha = 0.5, double beta = 0.5) {
  TabularQAgent::Options o;
  o.learning_rate = alpha;
  o.beta = beta;
  o.epsilon = EpsilonSchedule::exponential(0.0, 0.0, 1);
  return o;
}

TEST(TabularQ, ConstructionValidation) {
  EXPECT_THROW(TabularQAgent(0, 2, opts()), std::invalid_argument);
  EXPECT_THROW(TabularQAgent(2, 0, opts()), std::invalid_argument);
  auto bad_alpha = opts();
  bad_alpha.learning_rate = 0.0;
  EXPECT_THROW(TabularQAgent(2, 2, bad_alpha), std::invalid_argument);
  auto bad_beta = opts();
  bad_beta.beta = 0.0;
  EXPECT_THROW(TabularQAgent(2, 2, bad_beta), std::invalid_argument);
}

TEST(TabularQ, UpdateMatchesEqnTwo) {
  TabularQAgent agent(2, 2, opts(0.5, 0.5));
  // Prime Q(s'=1, *) so the bootstrap term is non-trivial.
  agent.update_with_value(1, 0, 0.0, 1e9, 4.0);  // long sojourn: Q -> ~0.5*(0*2) ...
  // Compute the exact expected update by hand for the main assertion:
  TabularQAgent fresh(2, 2, opts(0.5, 0.5));
  fresh.update(0, 1, -2.0, 3.0, 1);
  const double target = smdp_target(-2.0, 3.0, 0.5, 0.0);
  EXPECT_NEAR(fresh.q(0, 1), 0.5 * target, 1e-12);
}

TEST(TabularQ, UpdateWithValueUsesOverride) {
  TabularQAgent agent(1, 1, opts(1.0, 0.5));
  agent.update_with_value(0, 0, 0.0, 2.0, -10.0);
  EXPECT_NEAR(agent.q(0, 0), std::exp(-1.0) * -10.0, 1e-12);
}

TEST(TabularQ, GreedyPicksBestAction) {
  TabularQAgent agent(1, 3, opts(1.0, 0.5));
  agent.update_with_value(0, 0, -1.0, 1.0, 0.0);
  agent.update_with_value(0, 1, -0.1, 1.0, 0.0);
  agent.update_with_value(0, 2, -5.0, 1.0, 0.0);
  EXPECT_EQ(agent.greedy_action(0), 1u);
}

TEST(TabularQ, VisitsAreCounted) {
  TabularQAgent agent(2, 2, opts());
  agent.update(0, 1, 0.0, 1.0, 0);
  agent.update(0, 1, 0.0, 1.0, 0);
  EXPECT_EQ(agent.visits(0, 1), 2u);
  EXPECT_EQ(agent.visits(0, 0), 0u);
}

TEST(TabularQ, OutOfRangeThrows) {
  TabularQAgent agent(2, 2, opts());
  EXPECT_THROW(agent.q(2, 0), std::out_of_range);
  EXPECT_THROW(agent.q(0, 2), std::out_of_range);
  EXPECT_THROW(agent.update(2, 0, 0.0, 1.0, 0), std::out_of_range);
}

TEST(TabularQ, EpsilonOneExploresUniformly) {
  auto o = opts();
  o.epsilon = EpsilonSchedule::exponential(1.0, 1.0, 1);
  TabularQAgent agent(1, 4, o);
  common::Rng rng(5);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 4000; ++i) ++counts[agent.select_action(0, rng)];
  for (int c : counts) EXPECT_GT(c, 800);
}

TEST(TabularQ, EpsilonZeroIsGreedy) {
  TabularQAgent agent(1, 2, opts(1.0, 0.5));
  agent.update_with_value(0, 1, 1.0, 1e6, 0.0);  // make action 1 clearly best
  common::Rng rng(6);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(agent.select_action(0, rng), 1u);
}

// Convergence on an analytically solvable continuous-time problem: a single
// state where action 0 yields reward rate -1 and action 1 yields -3, both
// with deterministic sojourn tau. Optimal Q*(a) solves
//   Q(a) = (1-e^{-b t})/b * r_a + e^{-b t} * max_a' Q(a')
// with max over both; since r_0 > r_1, max = Q(0) and
//   Q(0) = (1-d)/b * r_0 / (1-d),  with d = e^{-b t}  ->  Q(0) = r_0 / b.
TEST(TabularQ, ConvergesToAnalyticFixedPoint) {
  const double beta = 0.5, tau = 1.0;
  auto o = opts(0.2, beta);
  o.epsilon = EpsilonSchedule::exponential(0.5, 0.5, 1);  // keep exploring both actions
  TabularQAgent agent(1, 2, o);
  common::Rng rng(7);
  for (int i = 0; i < 4000; ++i) {
    const std::size_t a = agent.select_action(0, rng);
    const double r = a == 0 ? -1.0 : -3.0;
    agent.update(0, a, r, tau, 0);
  }
  EXPECT_EQ(agent.greedy_action(0), 0u);
  EXPECT_NEAR(agent.q(0, 0), -1.0 / beta, 0.15);
  // Q(1) = (1-d)/b * r_1 + d * Q(0):
  const double d = std::exp(-beta * tau);
  EXPECT_NEAR(agent.q(0, 1), (1.0 - d) / beta * -3.0 + d * (-1.0 / beta), 0.3);
}

// Parameterized sweep: convergence holds across learning rates.
class TabularQConvergence : public testing::TestWithParam<double> {};

TEST_P(TabularQConvergence, LearnsBetterActionAcrossAlphas) {
  auto o = opts(GetParam(), 0.2);
  o.epsilon = EpsilonSchedule::exponential(0.3, 0.3, 1);
  TabularQAgent agent(2, 2, o);
  common::Rng rng(8);
  // State 0: action 1 better; state 1: action 0 better. Transitions flip state.
  std::size_t s = 0;
  for (int i = 0; i < 6000; ++i) {
    const std::size_t a = agent.select_action(s, rng);
    const double good = (s == 0) ? 1.0 : 0.0;
    const double r = (a == good) ? -1.0 : -2.0;
    const std::size_t next = 1 - s;
    agent.update(s, a, r, 2.0, next);
    s = next;
  }
  EXPECT_EQ(agent.greedy_action(0), 1u);
  EXPECT_EQ(agent.greedy_action(1), 0u);
}

INSTANTIATE_TEST_SUITE_P(Alphas, TabularQConvergence, testing::Values(0.05, 0.1, 0.3, 0.6));

}  // namespace
}  // namespace hcrl::rl
