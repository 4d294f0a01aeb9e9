#include "src/sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "src/common/rng.hpp"

namespace hcrl::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  q.push(5.0, EventType::kJobFinish, 1);
  q.push(1.0, EventType::kJobFinish, 0);
  q.push(3.0, EventType::kWakeComplete, 2);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_DOUBLE_EQ(q.pop().time, 1.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 3.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 5.0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  q.push(2.0, EventType::kJobFinish, 0, 100);
  q.push(2.0, EventType::kJobFinish, 0, 200);
  q.push(2.0, EventType::kJobFinish, 0, 300);
  EXPECT_EQ(q.pop().job, 100);
  EXPECT_EQ(q.pop().job, 200);
  EXPECT_EQ(q.pop().job, 300);
}

TEST(EventQueue, CarriesPayload) {
  EventQueue q;
  q.push(1.0, EventType::kIdleTimeout, 7, 0, 42);
  const Event e = q.pop();
  EXPECT_EQ(e.type, EventType::kIdleTimeout);
  EXPECT_EQ(e.server, 7u);
  EXPECT_EQ(e.generation, 42u);
}

TEST(EventQueue, TopDoesNotPop) {
  EventQueue q;
  q.push(1.0, EventType::kJobFinish);
  EXPECT_DOUBLE_EQ(q.top().time, 1.0);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, InterleavedPushPopKeepsOrder) {
  EventQueue q;
  q.push(10.0, EventType::kJobFinish, 0, 1);
  q.push(4.0, EventType::kJobFinish, 0, 2);
  EXPECT_EQ(q.pop().job, 2);
  q.push(6.0, EventType::kJobFinish, 0, 3);
  q.push(12.0, EventType::kSleepComplete, 0, 4);
  EXPECT_EQ(q.pop().job, 3);
  EXPECT_EQ(q.pop().job, 1);
  EXPECT_EQ(q.pop().job, 4);
}

TEST(EventQueue, EmptyTopAndPopThrow) {
  EventQueue q;
  EXPECT_THROW(q.top(), std::logic_error);
  EXPECT_THROW(q.pop(), std::logic_error);
  q.push(1.0, EventType::kJobFinish);
  q.pop();
  EXPECT_THROW(q.top(), std::logic_error);
  EXPECT_THROW(q.pop(), std::logic_error);
}

// Randomized interleavings of push / reserve_seq / push_at — the mix the
// engine's queue sees when staged decisions claim their inline-path seq —
// must always drain as the one total (time, seq) order.
// The test mirrors the queue's seq counter (push and reserve_seq each
// consume exactly one number) and checks the drain against a sort.
TEST(EventQueue, RandomizedReserveSeqInterleavingsDrainInTotalOrder) {
  common::Rng rng(1234);
  for (int trial = 0; trial < 50; ++trial) {
    EventQueue q;
    std::uint64_t mirror_seq = 0;
    std::vector<std::pair<Time, std::uint64_t>> expected;  // (time, seq) of every push
    std::vector<std::pair<Time, std::uint64_t>> reserved;  // staged, not yet pushed
    const int ops = 40 + static_cast<int>(rng.uniform_int(0, 40));
    for (int i = 0; i < ops; ++i) {
      // Coarse times force plenty of ties so the seq order is load-bearing.
      const Time t = static_cast<Time>(rng.uniform_int(0, 9));
      switch (rng.uniform_int(0, 2)) {
        case 0:
          q.push(t, EventType::kJobFinish);
          expected.emplace_back(t, mirror_seq++);
          break;
        case 1: {
          const std::uint64_t seq = q.reserve_seq();
          ASSERT_EQ(seq, mirror_seq++);
          // A staged decision may commit at a later timestamp than when it
          // reserved; draw the commit time independently.
          reserved.emplace_back(static_cast<Time>(rng.uniform_int(0, 9)), seq);
          break;
        }
        default:
          if (!reserved.empty()) {
            const auto [rt, rs] = reserved.back();
            reserved.pop_back();
            q.push_at(rt, rs, EventType::kIdleTimeout);
            expected.emplace_back(rt, rs);
          }
          break;
      }
    }
    // Flush any still-reserved decisions, mimicking the epoch flush.
    for (const auto& [rt, rs] : reserved) {
      q.push_at(rt, rs, EventType::kSleepComplete);
      expected.emplace_back(rt, rs);
    }
    std::sort(expected.begin(), expected.end());
    for (const auto& [et, es] : expected) {
      ASSERT_FALSE(q.empty());
      const Event e = q.pop();
      ASSERT_EQ(e.time, et);
      ASSERT_EQ(e.seq, es);
    }
    EXPECT_TRUE(q.empty());
  }
}

}  // namespace
}  // namespace hcrl::sim
