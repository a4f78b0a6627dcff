// Deterministic discrete-event queue for the ground-truth simulator.
//
// Events are ordered by (time, sequence number); the sequence number makes
// tie-breaking deterministic, which in turn makes every run reproducible from
// its seed. The queue is an inline 4-ary heap; the std::priority_queue it
// replaced lives on as the test oracle (tests/oracle/event_queue_oracle.h).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "sim/config.h"
#include "util/check.h"

namespace wire::sim {

enum class EventKind : std::uint8_t {
  /// A requested instance finished booting. payload = instance id.
  InstanceReady,
  /// A task finished transferring its input. payload = task id.
  TransferInDone,
  /// A task finished executing. payload = task id.
  ExecDone,
  /// A task finished writing its output (slot occupancy ends). payload = task.
  TransferOutDone,
  /// MAPE control interval boundary. payload unused.
  ControlTick,
  /// An instance ordered to drain reaches its charge boundary. payload =
  /// instance id.
  InstanceDrain,
  /// Earliest projected completion among the shared-bandwidth transfers
  /// (processor-sharing model). aux = transfer epoch; stale guards are
  /// ignored.
  TransferGuard,
  /// The per-dispatch scheduling overhead elapsed; the input transfer
  /// begins. payload = task id, aux = attempt.
  TransferStart,
  /// Fault injection: a Ready instance is reclaimed (spot-style revocation).
  /// payload = instance id. Ignored if the instance terminated earlier.
  InstanceCrash,
  /// Fault injection: a task attempt dies mid-execution. payload = task id,
  /// aux = attempt (stale guards are ignored, as for ExecDone).
  TaskFaulted,
  /// A failed task's retry backoff elapsed; it re-enters the ready queue.
  /// payload = task id, aux = the combined failure count (transient failures
  /// + OOM kills) the retry was scheduled for.
  TaskRetry,
  /// Memory dimension: a running attempt's footprint hit its reservation and
  /// the attempt is OOM-killed. payload = task id, aux = attempt (stale
  /// guards are ignored, as for ExecDone).
  TaskOom,
  /// Scheduled checkpointing: a running attempt reaches its next checkpoint
  /// instant, stalls execution, and starts a write on the shared checkpoint
  /// channel. payload = task id, aux = attempt (stale guards are ignored,
  /// as for ExecDone).
  TaskCheckpoint,
  /// Earliest projected completion among the shared-channel checkpoint
  /// writes (processor-sharing model, mirroring TransferGuard). aux =
  /// checkpoint epoch; stale guards are ignored.
  CheckpointGuard,
};

struct Event {
  SimTime time = 0.0;
  std::uint64_t seq = 0;
  EventKind kind = EventKind::ControlTick;
  std::uint32_t payload = 0;
  /// Guard value for stale-event detection: the task attempt number for task
  /// events (a resubmitted task invalidates events of its old attempt).
  std::uint32_t aux = 0;
};

/// Min-heap with four children per node, in one flat vector, ordered by
/// `Less`. Against a binary heap it halves the depth a push or pop walks, and
/// a pop compares siblings that sit next to each other in memory.
template <class T, class Less>
class QuaternaryHeap {
 public:
  bool empty() const { return data_.empty(); }
  std::size_t size() const { return data_.size(); }
  const T& top() const { return data_.front(); }

  void push(T value) {
    std::size_t i = data_.size();
    data_.push_back(value);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!less_(value, data_[parent])) break;
      data_[i] = data_[parent];
      i = parent;
    }
    data_[i] = value;
  }

  /// Removes the minimum. Requires non-empty.
  void pop() {
    const T last = data_.back();
    data_.pop_back();
    const std::size_t n = data_.size();
    if (n == 0) return;
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      const std::size_t end = std::min(first + 4, n);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (less_(data_[c], data_[best])) best = c;
      }
      if (!less_(data_[best], last)) break;
      data_[i] = data_[best];
      i = best;
    }
    data_[i] = last;
  }

 private:
  std::vector<T> data_;
  [[no_unique_address]] Less less_;
};

/// Min-heap over (time, seq). Keys are unique (seq never repeats), so the pop
/// sequence is fully determined by the scheduled events, whatever the heap's
/// internal layout.
class EventQueue {
 public:
  /// Schedules an event; `time` must be >= the last popped time.
  void schedule(SimTime time, EventKind kind, std::uint32_t payload,
                std::uint32_t aux = 0) {
    WIRE_REQUIRE(time >= last_popped_,
                 "cannot schedule an event in the simulated past");
    heap_.push(Event{time, next_seq_++, kind, payload, aux});
    if (is_tracked(kind)) tracked_.push(time);
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Time of the earliest pending event. Requires non-empty.
  SimTime next_time() const {
    WIRE_REQUIRE(!heap_.empty(), "next_time on empty queue");
    return heap_.top().time;
  }

  /// Pops the earliest event. Requires non-empty.
  Event pop() {
    WIRE_REQUIRE(!heap_.empty(), "pop on empty queue");
    const Event e = heap_.top();
    heap_.pop();
    last_popped_ = e.time;
    if (is_tracked(e.kind)) {
      WIRE_CHECK(!tracked_.empty() && tracked_.top() == e.time,
                 "tracked-kind mirror heap out of sync with the event queue");
      tracked_.pop();
    }
    return e;
  }

  /// Marks a set of event kinds as "tracked" (bit i = kind with enum value
  /// i): the queue maintains a side min-heap of their pending times so
  /// next_tracked_time() answers "when is the next tracked event?" in O(1)
  /// without draining the heap. Must be set before any event of a tracked
  /// kind is scheduled.
  void set_tracked_kinds(std::uint32_t mask) { tracked_mask_ = mask; }

  /// Time of the earliest pending event of a tracked kind, or +infinity when
  /// none is pending.
  SimTime next_tracked_time() const {
    if (tracked_.empty()) return std::numeric_limits<SimTime>::infinity();
    return tracked_.top();
  }

  /// Time of the most recently popped event (0 before the first pop): the
  /// owner's clock.
  SimTime last_popped_time() const { return last_popped_; }

 private:
  struct Earlier {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time < b.time;
      return a.seq < b.seq;
    }
  };
  bool is_tracked(EventKind kind) const {
    return (tracked_mask_ & (1u << static_cast<std::uint32_t>(kind))) != 0;
  }

  QuaternaryHeap<Event, Earlier> heap_;
  /// Pending times of tracked-kind events, as an exact multiset mirror: the
  /// global (time, seq) pop order guarantees a popped tracked event's time
  /// equals this heap's minimum, so pop() can retire entries one-for-one.
  QuaternaryHeap<SimTime, std::less<SimTime>> tracked_;
  std::uint32_t tracked_mask_ = 0;
  std::uint64_t next_seq_ = 0;
  SimTime last_popped_ = 0.0;
};

}  // namespace wire::sim
