// WIRE's internal workflow simulator (paper §III-B2).
//
// This is NOT the ground-truth simulator: it runs inside the controller, on
// *predicted* task occupancy times, to project the execution over the next
// control interval. Its outputs are the "upcoming load" Q_task — the tasks
// expected to be active (running or queued) at the start of the next interval
// with their conservatively predicted minimum remaining occupancy — and the
// per-instance restart costs c_j (the maximum sunk occupancy of any task
// projected to be running on the instance at that time).
#pragma once

#include <unordered_map>
#include <vector>

#include "dag/workflow.h"
#include "core/plan_scratch.h"
#include "core/run_state.h"
#include "predict/estimator.h"
#include "sim/config.h"
#include "sim/monitor.h"

namespace wire::predict {
class MemoryPredictor;
}

namespace wire::core {

/// One entry of the upcoming load Q_task. Field order packs the struct into
/// 24 bytes (16 before the memory dimension); Q_task runs to thousands of
/// entries per control tick and the emission loop is store-bandwidth-bound,
/// so the layout is measurable.
struct UpcomingTask {
  /// Predicted minimum remaining slot occupancy at the start of the next
  /// interval (seconds).
  double remaining_occupancy = 0.0;
  dag::TaskId task = dag::kInvalidTask;
  /// True if the task is projected to be occupying a slot at the start of
  /// the next interval (as opposed to waiting in the ready queue). On-slot
  /// tasks cannot be time-multiplexed by the pool-sizing bin-packer: their
  /// instance is pinned for at least the next charging unit.
  bool on_slot = false;
  /// Projected memory reservation (MB) the entry will hold; 0 in memory-off
  /// runs. On-slot entries carry the booked reservation the projection saw,
  /// queued entries the predictor's sizing — the SAME stored value both the
  /// inline Plan-stamp packer and steer()'s from-scratch rebuild consume, so
  /// the two paths cannot drift on memory grounds.
  double mem_mb = 0.0;
};

/// Per-entry Plan stamp for one Q_task entry, parallel to
/// LookaheadResult::upcoming (stamps[i] annotates upcoming[i]). Emitted in
/// steering-ready order: on-slot entries by projected completion, then the
/// projected ready queue in dispatch order — exactly the order Algorithm 3
/// consumes.
struct WavefrontStamp {
  /// Absolute projected completion time (deadline) of the slot's current
  /// attempt; -1 for queued entries (no slot, no projected deadline).
  /// Entries with deadline > horizon are projected still-busy at the next
  /// interval start and are the ones charged restart cost.
  double deadline = -1.0;
  /// Absolute start time of the attempt occupying the slot; -1 for queued
  /// entries.
  double start = -1.0;
  /// The occupancy Algorithm 3 packs for this entry: the steering clamp
  /// (on-slot entries pinned at >= one charging unit) already applied.
  double packed_occupancy = 0.0;
  /// Hosting instance for on-slot entries; kInvalidInstance for queued ones.
  sim::InstanceId instance = sim::kInvalidInstance;
};

struct LookaheadResult {
  /// Q_task in projected dispatch order (tasks already on slots first, by
  /// projected completion; then the projected ready queue).
  std::vector<UpcomingTask> upcoming;
  /// Plan stamps parallel to `upcoming`, filled only when `plan_valid` is
  /// set; empty otherwise.
  std::vector<WavefrontStamp> stamps;
  /// Restart cost per instance: max sunk occupancy (seconds) among tasks
  /// projected to be running on it at the start of the next interval.
  /// Instances absent from the map have no running tasks (cost 0).
  std::unordered_map<sim::InstanceId, double> restart_cost;
  /// Tasks projected to complete within the interval.
  std::uint32_t projected_completions = 0;
  /// Queue-tail entries omitted by the adaptive horizon cap (see
  /// LookaheadCacheOptions::adaptive_horizon). Always 0 from
  /// simulate_interval and from the cache with the cap off; when non-zero,
  /// `upcoming` is a prefix whose Algorithm-3 pool size already saturates
  /// the binding instance ceiling, so the steering decision is unchanged.
  std::uint32_t truncated_tasks = 0;
  /// Algorithm-3 planned pool size, packed inline during Q_task emission by
  /// the same Alg3Packer steering would run from scratch. Meaningful only
  /// when `plan_valid` is set.
  std::uint32_t planned_pool = 0;
  /// True when `stamps`/`planned_pool` were produced this tick under the
  /// Plan-cache contract (incremental lookahead, quiet kIncremental tick);
  /// steer() then consumes `planned_pool` directly. False from
  /// simulate_interval, from every fallback classification, and whenever
  /// plan stamping is disabled — steer() rebuilds from `upcoming`.
  bool plan_valid = false;
};

/// Projects execution from snapshot.now to snapshot.now + lag with the
/// current resource allotment (ready non-draining instances, plus
/// provisioning instances from when they boot; draining instances are
/// excluded and their tasks requeued). FIFO dispatch, mirroring the
/// framework master. The policy controller's predicted assignment may drift
/// from the true schedule; §III-D argues (and §IV-E confirms) the effect is
/// minor.
///
/// Estimates come from the plain Estimator interface, one call per task,
/// with no predict::PredictionScope: this is the from-scratch reference the
/// incremental lookahead (lookahead_cache.h), which does use one, is
/// differential-tested against.
///
/// `state`, when non-null and ready, supplies the incomplete-predecessor
/// counts maintained incrementally across ticks (see RunState), replacing
/// the O(V + E) per-call seeding scan with an O(V) copy. Null keeps the
/// self-contained from-scratch derivation (tests, one-shot callers).
///
/// `scratch`, when non-null, lends the projection's transient buffers (busy
/// heap, free-slot heap, ready queue, emission buffers) from a reusable
/// arena instead of allocating them per call; null keeps self-contained
/// local buffers. The result is bit-identical either way.
///
/// `memory`, when non-null (and config.memory.enabled()), makes the
/// projection memory-aware: dispatch admits a task only onto an instance
/// with enough projected free memory for its predicted reservation,
/// mirroring the engine's head-of-line admission, and Q_task entries carry
/// that reservation for the memory-aware Algorithm 3. Null (or memory off)
/// keeps the memory-unaware projection byte-identical to the pre-memory
/// code path.
LookaheadResult simulate_interval(const dag::Workflow& workflow,
                                  const sim::MonitorSnapshot& snapshot,
                                  const predict::Estimator& predictor,
                                  const sim::CloudConfig& config,
                                  const RunState* state = nullptr,
                                  PlanScratch* scratch = nullptr,
                                  const predict::MemoryPredictor* memory =
                                      nullptr);

}  // namespace wire::core
