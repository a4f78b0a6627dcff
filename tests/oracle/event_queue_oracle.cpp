// Reference event queue: std::priority_queue over (time, seq) plus a
// priority_queue mirror of tracked-kind times, exactly as the simulator ran
// it before the inline 4-ary heap. Kept test-only as the oracle the heap's
// differential test compares against; never linked into src/.
#include "oracle/event_queue_oracle.h"

#include <limits>

#include "util/check.h"

namespace wire::sim::oracle {

void EventQueue::schedule(SimTime time, EventKind kind, std::uint32_t payload,
                          std::uint32_t aux) {
  WIRE_REQUIRE(time >= last_popped_,
               "cannot schedule an event in the simulated past");
  heap_.push(Event{time, next_seq_++, kind, payload, aux});
  if (is_tracked(kind)) tracked_.push(time);
}

SimTime EventQueue::next_time() const {
  WIRE_REQUIRE(!heap_.empty(), "next_time on empty queue");
  return heap_.top().time;
}

SimTime EventQueue::next_tracked_time() const {
  if (tracked_.empty()) return std::numeric_limits<SimTime>::infinity();
  return tracked_.top();
}

Event EventQueue::pop() {
  WIRE_REQUIRE(!heap_.empty(), "pop on empty queue");
  Event e = heap_.top();
  heap_.pop();
  last_popped_ = e.time;
  if (is_tracked(e.kind)) {
    WIRE_CHECK(!tracked_.empty() && tracked_.top() == e.time,
               "tracked-kind mirror heap out of sync with the event queue");
    tracked_.pop();
  }
  return e;
}

}  // namespace wire::sim::oracle
