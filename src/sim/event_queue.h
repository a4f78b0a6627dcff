// Deterministic discrete-event queue for the ground-truth simulator.
//
// Events are ordered by (time, sequence number); the sequence number makes
// tie-breaking deterministic, which in turn makes every run reproducible from
// its seed.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/config.h"

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

/// Min-heap over (time, seq).
class EventQueue {
 public:
  /// Schedules an event; `time` must be >= the last popped time.
  void schedule(SimTime time, EventKind kind, std::uint32_t payload,
                std::uint32_t aux = 0);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Time of the earliest pending event. Requires non-empty.
  SimTime next_time() const;

  /// Pops the earliest event. Requires non-empty.
  Event pop();

  /// Marks a set of event kinds as "tracked" (bit i = kind with enum value
  /// i): the queue maintains a side min-heap of their pending times so
  /// next_tracked_time() answers "when is the next tracked event?" in O(1)
  /// without draining the heap. Must be set before any event of a tracked
  /// kind is scheduled.
  void set_tracked_kinds(std::uint32_t mask) { tracked_mask_ = mask; }

  /// Time of the earliest pending event of a tracked kind, or +infinity when
  /// none is pending.
  SimTime next_tracked_time() const;

  /// Time of the most recently popped event (0 before the first pop): the
  /// owner's clock.
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
  /// Pending times of tracked-kind events, as an exact multiset mirror: the
  /// global (time, seq) pop order guarantees a popped tracked event's time
  /// equals this heap's minimum, so pop() can retire entries one-for-one.
  std::priority_queue<SimTime, std::vector<SimTime>, std::greater<SimTime>>
      tracked_;
  std::uint32_t tracked_mask_ = 0;
  std::uint64_t next_seq_ = 0;
  SimTime last_popped_ = 0.0;
};

}  // namespace wire::sim
