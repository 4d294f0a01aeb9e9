// Global-tier state encoding (§V-A).
//
// The DRL state at job j's arrival is s = [g_1, ..., g_K, s_j]: the K server
// -group states plus the job's own features. Per server we encode the D
// resource utilizations exactly as the paper defines, plus two features the
// joint problem makes observable and material: an availability code for the
// power mode (the broker can see which machines are asleep) and a bounded
// queue-length feature (FCFS waiting drives the latency part of the reward).
// Job features are its D demands plus a log-scaled duration estimate d_j.
#pragma once

#include <cstddef>
#include <vector>

#include "src/nn/matrix.hpp"
#include "src/sim/cluster_view.hpp"

namespace hcrl::core {

struct StateEncoderOptions {
  std::size_t num_servers = 30;
  std::size_t num_groups = 3;       // K; paper varies it between 2 and 4
  std::size_t num_resources = 3;    // D
  double max_queue_feature = 50.0;  // log-scale queue feature reference point
  double duration_scale = 7200.0;   // durations are log-scaled against this

  void validate() const;
  std::size_t group_size() const { return num_servers / num_groups; }
  /// Features per server: D utilizations + availability + queue length.
  std::size_t per_server_features() const { return num_resources + 2; }
  std::size_t group_state_dim() const { return group_size() * per_server_features(); }
  std::size_t job_state_dim() const { return num_resources + 1; }
  /// Dimension of the full flat state [g_1..g_K, s_j].
  std::size_t full_state_dim() const {
    return num_groups * group_state_dim() + job_state_dim();
  }
};

class StateEncoder {
 public:
  explicit StateEncoder(const StateEncoderOptions& opts);

  const StateEncoderOptions& options() const noexcept { return opts_; }

  /// State vector g_k of server group k (servers [k*|G|, (k+1)*|G|)).
  nn::Vec group_state(const sim::ClusterView& cluster, std::size_t group) const;
  /// Job feature vector s_j.
  nn::Vec job_state(const sim::Job& job) const;
  /// Full flat state [g_1, ..., g_K, s_j]: the global tier's DQN state.
  nn::Vec full_state(const sim::ClusterView& cluster, const sim::Job& job) const;

  /// Group that server `m` belongs to, and its index within the group.
  std::size_t group_of(std::size_t server) const { return server / opts_.group_size(); }
  std::size_t index_in_group(std::size_t server) const { return server % opts_.group_size(); }
  std::size_t server_of(std::size_t group, std::size_t index_in_group) const {
    return group * opts_.group_size() + index_in_group;
  }

 private:
  void encode_server(const sim::Server& server, nn::Vec& out) const;

  StateEncoderOptions opts_;
};

}  // namespace hcrl::core
