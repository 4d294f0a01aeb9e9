#include "src/rl/replay.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

namespace hcrl::rl {
namespace {

Transition make_transition(double marker) {
  Transition t;
  t.state = {marker};
  t.next_state = {marker};
  t.reward_rate = marker;
  t.tau = 1.0;
  return t;
}

TEST(ReplayBuffer, FillsToCapacityThenWraps) {
  ReplayBuffer<Transition> buf(3);
  for (int i = 0; i < 5; ++i) buf.push(make_transition(i));
  EXPECT_EQ(buf.size(), 3u);
  // Oldest entries (0, 1) are overwritten by 3 and 4.
  std::multiset<double> contents;
  for (std::size_t i = 0; i < buf.size(); ++i) contents.insert(buf.at(i).reward_rate);
  EXPECT_EQ(contents.count(0.0), 0u);
  EXPECT_EQ(contents.count(1.0), 0u);
  EXPECT_EQ(contents.count(2.0), 1u);
  EXPECT_EQ(contents.count(3.0), 1u);
  EXPECT_EQ(contents.count(4.0), 1u);
}

TEST(ReplayBuffer, ZeroCapacityThrows) {
  EXPECT_THROW(ReplayBuffer<Transition>(0), std::invalid_argument);
}

TEST(ReplayBuffer, SampleFromEmptyThrows) {
  ReplayBuffer<Transition> buf(4);
  common::Rng rng(1);
  EXPECT_THROW(buf.sample(1, rng), std::logic_error);
}

TEST(ReplayBuffer, SamplePointersAreValid) {
  ReplayBuffer<Transition> buf(10);
  for (int i = 0; i < 10; ++i) buf.push(make_transition(i));
  common::Rng rng(2);
  const auto batch = buf.sample(32, rng);
  EXPECT_EQ(batch.size(), 32u);
  for (const Transition* t : batch) {
    ASSERT_NE(t, nullptr);
    EXPECT_GE(t->reward_rate, 0.0);
    EXPECT_LE(t->reward_rate, 9.0);
  }
}

TEST(ReplayBuffer, SampleCoversBuffer) {
  ReplayBuffer<Transition> buf(8);
  for (int i = 0; i < 8; ++i) buf.push(make_transition(i));
  common::Rng rng(3);
  std::set<double> seen;
  for (const Transition* t : buf.sample(500, rng)) seen.insert(t->reward_rate);
  EXPECT_EQ(seen.size(), 8u);
}

TEST(ReplayBuffer, GenericPayload) {
  ReplayBuffer<int> buf(2);
  buf.push(7);
  buf.push(8);
  buf.push(9);
  EXPECT_EQ(buf.size(), 2u);
}

}  // namespace
}  // namespace hcrl::rl
