// Reusable scratch arena for the Plan phase (lookahead projection +
// steering), shared across control ticks — and, in multi-tenant runs, across
// tenant controllers.
//
// The projection event loop (lookahead_impl.h) and the steering policy
// (steering.cpp) together allocate roughly a dozen transient containers per
// control tick: the busy-slot heap, the free-slot heap, the projected ready
// queue, the Q_task emission buffers, the victim-candidate list. Each is
// empty again by the end of the tick, so a single controller can reuse one
// set of buffers forever — and because the ensemble driver steps one tenant
// at a time on the calling thread (see ensemble/driver.h), N tenant
// controllers can share ONE arena instead of paying N sets of allocation
// churn (exp::sharded_policy_factory mints every WIRE controller onto one).
// Sharing requires that serialization: the arena holds no cross-tick state,
// but it is not thread-safe and two policies must never be mid-plan() on it
// concurrently.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dag/workflow.h"
#include "sim/monitor.h"

namespace wire::core {

/// One occupied slot inside the projection event loop: the task, its host,
/// when the attempt started occupying the slot, and the projected finish.
struct BusySlot {
  sim::SimTime finish = 0.0;
  sim::SimTime attempt_start = 0.0;
  /// Memory reservation the slot's attempt holds (MB); 0 in memory-off
  /// projections. Released back to the hosting instance when a speculative
  /// (non-real) attempt completes.
  double mem_mb = 0.0;
  dag::TaskId task = dag::kInvalidTask;
  sim::InstanceId instance = sim::kInvalidInstance;
  /// True if the task was observed Running in the snapshot (as opposed to
  /// dispatched speculatively inside this lookahead).
  bool real = false;
};

/// Per-instance projected capacity for the memory-aware dispatch scan
/// (memory-on projections only). Kept sorted ascending by id: the engine's
/// memory-aware dispatch scans dispatchable instances in ascending-id order
/// for the first fit, and the projection mirrors that scan exactly.
struct ProjInstance {
  sim::InstanceId id = sim::kInvalidInstance;
  std::uint32_t free_slots = 0;
  double free_mem = 0.0;
};

/// Shrink-path victim candidate (Algorithm 2's release selection).
struct VictimCandidate {
  sim::InstanceId id = sim::kInvalidInstance;
  double restart_cost = 0.0;
};

struct PlanScratch {
  // --- projection event loop (detail::simulate_interval_impl) ---
  /// Busy slots as a heap ordered by detail::LaterFinish (top = front).
  std::vector<BusySlot> busy;
  /// Free slots as a min-heap of instance ids (duplicates = multiple slots).
  std::vector<sim::InstanceId> free_slots;
  /// FIFO projected ready queue (vector + cursor; only grows, indices stable).
  std::vector<dag::TaskId> ready;
  /// Tasks requeued off draining/revoking instances: occupancy re-estimated
  /// from scratch (their sunk progress is lost on restart).
  std::unordered_map<dag::TaskId, double> occupancy_override;
  /// Instances booting within the interval: (boot time, id).
  std::vector<std::pair<sim::SimTime, sim::InstanceId>> boots;
  /// Observed-running tasks whose in-interval completion is speculative.
  std::vector<BusySlot> speculative;
  /// Slots still occupied at the horizon, in projected-completion order.
  std::vector<BusySlot> still_busy;

  // --- incremental-lookahead per-tick capture (IncrementalLookahead) ---
  std::vector<dag::TaskId> projected_complete;
  std::vector<dag::TaskId> projected_running;
  /// Undo log for borrowed RunState predecessor counters.
  std::vector<dag::TaskId> undo;
  /// Locally seeded predecessor counters when no RunState is available.
  std::vector<std::uint32_t> local_preds;

  /// Memory-on projections: per-instance free slots + free memory, sorted
  /// ascending by id (empty and untouched in memory-off projections, which
  /// keep the cheaper free-slot heap).
  std::vector<ProjInstance> mem_instances;

  // --- steering (Algorithm 3 + victim selection, steering.cpp) ---
  /// Clamped Q_task occupancies for the from-scratch resize_pool path.
  std::vector<double> occupancy;
  /// Parallel projected reservations (memory-on steering only).
  std::vector<double> occupancy_mem;
  std::vector<VictimCandidate> candidates;

  /// Resident footprint in bytes (§IV-F overhead accounting). When the arena
  /// is shared across tenant controllers this is charged once per arena, not
  /// once per controller.
  std::size_t state_bytes() const {
    const auto vec = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
    return sizeof(*this) + vec(busy) + vec(free_slots) + vec(ready) +
           vec(boots) + vec(speculative) + vec(still_busy) +
           vec(mem_instances) + vec(projected_complete) +
           vec(projected_running) + vec(undo) + vec(local_preds) +
           vec(occupancy) + vec(occupancy_mem) + vec(candidates) +
           occupancy_override.size() * (sizeof(dag::TaskId) + sizeof(double));
  }
};

}  // namespace wire::core
