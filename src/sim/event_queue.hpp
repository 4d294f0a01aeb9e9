// Discrete-event queue with deterministic tie-breaking.
#pragma once

#include <cstdint>
#include <queue>
#include <stdexcept>
#include <vector>

#include "src/sim/types.hpp"

namespace hcrl::sim {

enum class EventType : std::uint8_t {
  kJobFinish,      // job completes on `server`
  kWakeComplete,   // server finished its sleep->active transition
  kSleepComplete,  // server finished its active->sleep transition
  kIdleTimeout,    // server's DPM timeout expired (guarded by `generation`)
  kServerCrash,    // fault injection: server fails, all its work is revoked
  kServerRecover,  // fault injection: repair completes, server returns cold
  kSpotEvict,      // fault injection: spot revocation kills running jobs
};

struct Event {
  Time time = 0.0;
  std::uint64_t seq = 0;  // insertion order; breaks ties deterministically
  EventType type = EventType::kJobFinish;
  ServerId server = 0;
  JobId job = 0;
  std::uint64_t generation = 0;  // for cancellable timeouts
};

class EventQueue {
 public:
  void push(Time time, EventType type, ServerId server = 0, JobId job = 0,
            std::uint64_t generation = 0) {
    heap_.push(Event{time, next_seq_++, type, server, job, generation});
  }

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  /// Checked: inspecting or popping an empty heap is a driver bug (it was UB
  /// through std::priority_queue), so both throw instead.
  const Event& top() const {
    if (heap_.empty()) throw std::logic_error("EventQueue::top: empty queue");
    return heap_.top();
  }
  Event pop() {
    if (heap_.empty()) throw std::logic_error("EventQueue::pop: empty queue");
    Event e = heap_.top();
    heap_.pop();
    return e;
  }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace hcrl::sim
