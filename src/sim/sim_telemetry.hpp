// Simulation-layer telemetry ids for the Cluster engine. The struct is a
// magic static: ids resolve once per process, and the hot helpers in
// telemetry/registry.hpp are a relaxed load + branch while telemetry is
// disabled — the engine's determinism contract is unaffected either way.
#pragma once

#include "src/telemetry/registry.hpp"

namespace hcrl::sim {

/// Why a decision epoch was flushed (mirrors the barrier conditions in
/// Cluster::step()).
enum class FlushReason { kDrain, kTimeAdvance, kArrival, kForced };

struct SimMetrics {
  telemetry::MetricId events;
  telemetry::MetricId arrivals;
  telemetry::MetricId flush_drain;
  telemetry::MetricId flush_time_advance;
  telemetry::MetricId flush_arrival;
  telemetry::MetricId flush_forced;
  // Fault injection (see src/sim/fault/fault.hpp).
  telemetry::MetricId fault_crashes;
  telemetry::MetricId fault_evictions;
  telemetry::MetricId fault_retries;
  telemetry::MetricId fault_lost;

  static const SimMetrics& get() {
    static const SimMetrics m = [] {
      auto& reg = telemetry::global_registry();
      return SimMetrics{
          .events = reg.counter("sim.events"),
          .arrivals = reg.counter("sim.arrivals"),
          .flush_drain = reg.counter("sim.epoch_flush.drain"),
          .flush_time_advance = reg.counter("sim.epoch_flush.time_advance"),
          .flush_arrival = reg.counter("sim.epoch_flush.arrival"),
          .flush_forced = reg.counter("sim.epoch_flush.forced"),
          .fault_crashes = reg.counter("sim.faults.crashes"),
          .fault_evictions = reg.counter("sim.faults.evictions"),
          .fault_retries = reg.counter("sim.faults.retries"),
          .fault_lost = reg.counter("sim.faults.jobs_lost"),
      };
    }();
    return m;
  }
};

inline void count_flush(FlushReason reason) {
  if (!telemetry::enabled()) return;
  const SimMetrics& m = SimMetrics::get();
  switch (reason) {
    case FlushReason::kDrain: telemetry::count(m.flush_drain); break;
    case FlushReason::kTimeAdvance: telemetry::count(m.flush_time_advance); break;
    case FlushReason::kArrival: telemetry::count(m.flush_arrival); break;
    case FlushReason::kForced: telemetry::count(m.flush_forced); break;
  }
}

}  // namespace hcrl::sim
