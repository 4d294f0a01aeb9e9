// Read-only view of a running cluster simulation.
//
// Policies (the global allocation tier in particular) observe cluster-wide
// state at every decision epoch: per-server power states and utilizations for
// the DRL state encoding, the exact metric integrals behind the Eqn. (4)
// reward, and the crash-failed count that masks placement. ClusterView is
// that observation surface, decoupled from the engine that advances the
// simulation (`Cluster`, the only implementation): policies see a read-only
// view and never the mutating engine API.
//
// Server access is non-virtual (a span over the engine's contiguous server
// array) because encoders and heuristics scan every server on the hot path.
// The metric queries stay virtual although `Cluster` is the only
// implementation: devirtualizing them saved about ten lines and ran the f32
// DRL-only workload of bench_e2e a few percent slower.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>

#include "src/sim/server.hpp"
#include "src/sim/types.hpp"

namespace hcrl::sim {

class ClusterView {
 public:
  virtual ~ClusterView() = default;

  /// All servers, indexed by ServerId (contiguous).
  std::span<const Server> servers() const noexcept { return servers_; }
  std::size_t num_servers() const noexcept { return servers_.size(); }
  const Server& server(std::size_t i) const {
    if (i >= servers_.size()) {
      throw std::out_of_range("ClusterView::server: id " + std::to_string(i) + " out of range");
    }
    return servers_[i];
  }

  /// Current simulation time (the engine's committed clock).
  virtual Time now() const noexcept = 0;

  // ---- exact metric integrals (the Eqn. 4 reward signals) ------------------
  virtual double energy_joules(Time t) const = 0;
  virtual double jobs_in_system_integral(Time t) const = 0;
  virtual double reliability_integral(Time t) const = 0;
  virtual std::size_t jobs_arrived() const noexcept = 0;
  virtual std::size_t jobs_completed() const noexcept = 0;

  // ---- failure mask (fault injection; see src/sim/fault/fault.hpp) ---------
  /// Number of servers currently crash-failed; 0 when faults are off.
  /// Policies must exclude failed servers (`Server::failed()`) from
  /// placement; the engine bounces placements into them.
  virtual std::size_t servers_failed() const { return 0; }

 protected:
  /// Set once by the engine after its server array is fully constructed.
  void set_server_view(std::span<const Server> servers) noexcept { servers_ = servers; }

 private:
  std::span<const Server> servers_;
};

}  // namespace hcrl::sim
