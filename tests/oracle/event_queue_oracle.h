// Test-only reference event queue: the std::priority_queue implementation the
// simulator ran before its inline 4-ary heap (sim/event_queue.h). Same
// contract; for any sequence of schedule/pop calls both must pop identical
// events and report identical tracked times.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/event_queue.h"

namespace wire::sim::oracle {

class EventQueue {
 public:
  void schedule(SimTime time, EventKind kind, std::uint32_t payload,
                std::uint32_t aux = 0);
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  SimTime next_time() const;
  Event pop();
  void set_tracked_kinds(std::uint32_t mask) { tracked_mask_ = mask; }
  SimTime next_tracked_time() const;
  SimTime last_popped_time() const { return last_popped_; }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  bool is_tracked(EventKind kind) const {
    return (tracked_mask_ & (1u << static_cast<std::uint32_t>(kind))) != 0;
  }

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  std::priority_queue<SimTime, std::vector<SimTime>, std::greater<SimTime>>
      tracked_;
  std::uint32_t tracked_mask_ = 0;
  std::uint64_t next_seq_ = 0;
  SimTime last_popped_ = 0.0;
};

}  // namespace wire::sim::oracle
