// Trace arrivals as both engines consume them: load-time trace validation
// and the equal-time order of the three event sources (trace cursor, fault
// retry stream, event heap). Cluster and ShardedCluster both call these, so
// serial and lockstep runs share one ordering rule.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/sim/fault/fault.hpp"
#include "src/sim/types.hpp"

namespace hcrl::sim {

/// Throws std::invalid_argument (prefixed by `who`) unless every job is
/// valid with `dims` resources, arrivals are sorted, ids are unique and the
/// trace fits JobId's index range.
void validate_trace(const std::vector<Job>& jobs, std::size_t dims, const char* who);

enum class EventSource : std::uint8_t { kNone, kArrival, kRetry, kHeap };

struct NextEvent {
  EventSource source = EventSource::kNone;
  Time time = 0.0;

  /// Trace arrivals and retry deliveries both route through the allocator.
  bool is_arrival() const noexcept {
    return source == EventSource::kArrival || source == EventSource::kRetry;
  }
};

/// The next event: the trace arrival at `cursor` (none once the cursor
/// passes the end), the head of `faults`' retry stream (none without an
/// injector or pending retry), or the event heap's top time. The earliest
/// wins; equal times go trace arrival, then retry, then heap.
inline NextEvent next_event(const std::vector<Job>& trace, std::size_t cursor,
                            const FaultInjector* faults, std::optional<Time> heap_top) {
  NextEvent next;
  // A later source takes over only when strictly earlier, so ties keep the
  // earlier source in precedence order.
  auto consider = [&next](EventSource source, Time t) {
    if (next.source == EventSource::kNone || t < next.time) next = {source, t};
  };
  if (cursor < trace.size()) consider(EventSource::kArrival, trace[cursor].arrival);
  if (faults != nullptr && faults->has_pending_retry()) {
    consider(EventSource::kRetry, faults->next_retry_time());
  }
  if (heap_top) consider(EventSource::kHeap, *heap_top);
  return next;
}

}  // namespace hcrl::sim
