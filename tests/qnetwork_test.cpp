#include "src/core/qnetwork.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace hcrl::core {
namespace {

GroupedQOptions small_opts() {
  GroupedQOptions o;
  o.encoder.num_servers = 6;
  o.encoder.num_groups = 2;
  o.encoder.num_resources = 2;
  o.autoencoder_dims = {8, 4};
  o.subq_hidden = 16;
  o.learning_rate = 3e-3;
  o.autoencoder_train_interval = 4;
  o.autoencoder_batch = 8;
  return o;
}

nn::Vec random_state(const GroupedQOptions& o, common::Rng& rng) {
  nn::Vec s(o.encoder.full_state_dim());
  for (auto& v : s) v = rng.uniform();
  return s;
}

TEST(GroupedQOptions, Validation) {
  EXPECT_NO_THROW(small_opts().validate());
  auto o = small_opts();
  o.autoencoder_dims = {};
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = small_opts();
  o.subq_hidden = 0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = small_opts();
  o.learning_rate = 0.0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
}

TEST(GroupedQNetwork, DimensionsFollowFigSix) {
  common::Rng rng(1);
  const auto o = small_opts();
  GroupedQNetwork net(o, rng);
  EXPECT_EQ(net.num_actions(), 6u);
  // head input = raw group (3 servers * 4 features) + job (3) + 1 other code (4).
  EXPECT_EQ(net.head_input_dim(), 12u + 3u + 4u);
  common::Rng srng(2);
  const nn::Vec q = net.q_values(random_state(o, srng));
  EXPECT_EQ(q.size(), 6u);
}

TEST(GroupedQNetwork, SliceHelpers) {
  common::Rng rng(3);
  const auto o = small_opts();
  GroupedQNetwork net(o, rng);
  nn::Vec state(o.encoder.full_state_dim());
  for (std::size_t i = 0; i < state.size(); ++i) state[i] = static_cast<double>(i);
  const nn::Vec g0 = net.slice_group(state, 0);
  const nn::Vec g1 = net.slice_group(state, 1);
  const nn::Vec job = net.slice_job(state);
  EXPECT_EQ(g0.size(), o.encoder.group_state_dim());
  EXPECT_DOUBLE_EQ(g0[0], 0.0);
  EXPECT_DOUBLE_EQ(g1[0], static_cast<double>(o.encoder.group_state_dim()));
  EXPECT_DOUBLE_EQ(job.back(), static_cast<double>(state.size() - 1));
  EXPECT_THROW(net.slice_group(state, 2), std::out_of_range);
  EXPECT_THROW(net.slice_group(nn::Vec(3), 0), std::invalid_argument);
  EXPECT_THROW(net.slice_job(nn::Vec(3)), std::invalid_argument);
}

TEST(GroupedQNetwork, TargetSyncMakesOutputsEqual) {
  common::Rng rng(4);
  const auto o = small_opts();
  GroupedQNetwork net(o, rng);
  common::Rng srng(5);
  const nn::Vec s = random_state(o, srng);
  net.sync_target();
  const nn::Vec online = net.q_values(s);
  const nn::Vec target = net.q_values_target(s);
  for (std::size_t i = 0; i < online.size(); ++i) EXPECT_DOUBLE_EQ(online[i], target[i]);
}

TEST(GroupedQNetwork, TrainBatchFitsFixedTargets) {
  // Freeze a single transition with a long sojourn (so the bootstrap term
  // vanishes) and verify the Q-value of the chosen action moves toward
  // reward_rate / beta while training loss decreases.
  common::Rng rng(6);
  const auto o = small_opts();
  GroupedQNetwork net(o, rng);
  common::Rng srng(7);

  rl::Transition t;
  t.state = random_state(o, srng);
  t.next_state = random_state(o, srng);
  t.action = 4;  // group 1, local index 1
  t.reward_rate = -2.0;
  t.tau = 1e9;
  const double beta = 0.5;

  double first_loss = 0.0, last_loss = 0.0;
  for (int i = 0; i < 300; ++i) {
    const double loss = net.train_batch({&t}, beta);
    if (i == 0) first_loss = loss;
    last_loss = loss;
  }
  EXPECT_LT(last_loss, first_loss);
  EXPECT_NEAR(net.q_values(t.state)[4], -2.0 / beta, 0.5);
}

TEST(GroupedQNetwork, TrainBatchRejectsEmpty) {
  common::Rng rng(8);
  GroupedQNetwork net(small_opts(), rng);
  EXPECT_THROW(net.train_batch({}, 0.5), std::invalid_argument);
}

TEST(GroupedQNetwork, TrainBatchRejectsOutOfRangeActionAndBadStates) {
  GroupedQOptions o;
  o.encoder.num_servers = 4;
  o.encoder.num_groups = 2;
  common::Rng rng(16);
  GroupedQNetwork net(o, rng);
  common::Rng srng(17);
  rl::Transition t;
  t.state = random_state(o, srng);
  t.next_state = random_state(o, srng);
  t.reward_rate = -1.0;
  t.tau = 1.0;
  t.action = 3;
  EXPECT_NO_THROW(net.train_batch({&t}, 0.5));
  // Action 4 would pick group 2 of 2 and read past the end of the state.
  t.action = 4;
  EXPECT_THROW(net.train_batch({&t}, 0.5), std::invalid_argument);
  t.action = 0;
  t.next_state.pop_back();
  EXPECT_THROW(net.train_batch({&t}, 0.5), std::invalid_argument);
  EXPECT_THROW(net.q_values(t.next_state), std::invalid_argument);
}

TEST(GroupedQNetwork, OneGroupIsTheMonolithicNetworkWithoutAutoencoder) {
  GroupedQOptions o;
  o.encoder.num_servers = 30;
  o.encoder.num_groups = 1;
  common::Rng rng(18);
  GroupedQNetwork net(o, rng);
  EXPECT_EQ(net.autoencoder_param_count(), 0u);
  // One 128-unit ELU head over 30 servers x 5 features + 4 job features,
  // with 30 outputs: (154 * 128 + 128) + (128 * 30 + 30).
  EXPECT_EQ(net.subq_param_count(), 23710u);
  EXPECT_EQ(net.param_values().size(), 23710u);

  common::Rng srng(19);
  common::Rng train_rng(20), untouched(20);
  for (int i = 0; i < 3 * static_cast<int>(o.autoencoder_train_interval); ++i) {
    EXPECT_LT(net.observe_state(random_state(o, srng), train_rng), 0.0);
  }
  EXPECT_LT(net.last_autoencoder_loss(), 0.0);
  // Nothing was buffered or sampled: the caller's stream is where it started.
  EXPECT_EQ(train_rng.uniform_int(0, 1 << 30), untouched.uniform_int(0, 1 << 30));
  EXPECT_EQ(net.q_values(random_state(o, srng)).size(), 30u);
}

TEST(GroupedQNetwork, ObserveStateTrainsAutoencoderEventually) {
  common::Rng rng(9);
  auto o = small_opts();
  GroupedQNetwork net(o, rng);
  common::Rng srng(10);
  common::Rng train_rng(11);
  double last = -1.0;
  for (int i = 0; i < 64; ++i) {
    const double loss = net.observe_state(random_state(o, srng), train_rng);
    if (loss >= 0.0) last = loss;
  }
  EXPECT_GE(last, 0.0) << "autoencoder batches should have run";
  EXPECT_GE(net.last_autoencoder_loss(), 0.0);
}

TEST(GroupedQNetwork, AutoencoderLossDecreasesOnStationaryStates) {
  common::Rng rng(12);
  auto o = small_opts();
  o.autoencoder_train_interval = 1;
  GroupedQNetwork net(o, rng);
  common::Rng srng(13);
  common::Rng train_rng(14);
  // A small fixed pool of states, fed repeatedly.
  std::vector<nn::Vec> pool;
  for (int i = 0; i < 8; ++i) pool.push_back(random_state(o, srng));
  double first = -1.0, last = -1.0;
  for (int i = 0; i < 600; ++i) {
    const double loss = net.observe_state(pool[static_cast<std::size_t>(i) % pool.size()],
                                          train_rng);
    if (loss >= 0.0) {
      if (first < 0.0) first = loss;
      last = loss;
    }
  }
  ASSERT_GE(first, 0.0);
  EXPECT_LT(last, first);
}

TEST(GroupedQNetwork, WeightSharingMeansOneSubQParamSet) {
  common::Rng rng(15);
  const auto o = small_opts();
  GroupedQNetwork net(o, rng);
  // 2 groups share one head: parameter count equals a single head's.
  const std::size_t expected = (net.head_input_dim() * o.subq_hidden + o.subq_hidden) +
                               (o.subq_hidden * o.encoder.group_size() + o.encoder.group_size());
  EXPECT_EQ(net.subq_param_count(), expected);
}

}  // namespace
}  // namespace hcrl::core
