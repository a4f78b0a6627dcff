// Shared event-loop skeleton of WIRE's internal workflow simulator.
//
// Both the from-scratch reference (simulate_interval, lookahead.cpp) and the
// incremental lookahead (lookahead_cache.cpp) instantiate this one template,
// differing only in where the occupancy estimates come from (direct
// predictor calls vs a revision-validated memo). Byte-identical steering
// decisions are the contract — every Table-I and ensemble baseline is diffed
// in hexfloat — and floating-point arithmetic does not reassociate: two
// independently written loops that are merely "mathematically equal" drift
// in ulps. One skeleton makes the arithmetic identical by construction; the
// occupancy sources are obliged to return bit-equal doubles, which the
// differential suite (tests/test_core_lookahead_incremental.cpp) enforces at
// every control tick under fault chaos.
//
// The transient containers (busy-slot heap, free-slot heap, ready queue,
// emission buffers) live in a caller-provided PlanScratch arena — persistent
// callers reuse one arena across ticks (and, via the ensemble driver, across
// tenants) instead of reallocating per tick. The heaps are kept manually
// with std::push_heap/pop_heap on the arena's vectors; the standard defines
// std::priority_queue as exactly that, so replacing the queue objects the
// earlier revision used cannot change the pop order.
#pragma once

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "core/lookahead.h"
#include "core/plan_scratch.h"
#include "core/steering.h"
#include "util/check.h"

namespace wire::core::detail {

struct LaterFinish {
  bool operator()(const BusySlot& a, const BusySlot& b) const {
    if (a.finish != b.finish) return a.finish > b.finish;
    return a.task > b.task;
  }
};

/// Optional capture of the projection's internal wavefront, consumed by the
/// incremental lookahead to classify the next tick's delta against what this
/// tick predicted.
struct WavefrontCapture {
  /// Tasks whose completion within the interval the projection predicted
  /// (observed-running and speculatively dispatched alike).
  std::vector<dag::TaskId>* projected_complete = nullptr;
  /// Every task that held a slot at any point of the projection.
  std::vector<dag::TaskId>* projected_running = nullptr;
};

/// Opt-in adaptive horizon cap: stop emitting queue-tail entries once the
/// steering decision can no longer change. The stopping rule runs Algorithm
/// 3's greedy packer online (same clamp, same retire/advance arithmetic):
/// its main-loop instance count after consuming a prefix is a lower bound on
/// the count after the full queue (the packer is an online algorithm — its
/// state after i entries is independent of later ones, and the final
/// leftover rule only ever adds one). Once that bound reaches the binding
/// pool ceiling, the planned size saturates at >= the ceiling for prefix and
/// full queue alike, so the clamped steering decision is identical; only the
/// unclamped demand signal (PoolCommand::desired_pool) saturates instead of
/// being exact, which is why the cap stays opt-in and off for multi-tenant
/// runs whose arbiter consumes that signal.
struct EmissionCap {
  bool enabled = false;
  /// The binding instance ceiling (snapshot.pool_cap, which already folds in
  /// the site capacity). Truncation starts once the online packer's
  /// main-loop count reaches this.
  std::uint32_t target_pool = 0;
};

/// The §III-B2 projection loop. `remaining_occ(task)` estimates remaining
/// slot occupancy at snapshot.now; `fresh_occ(task)` estimates a
/// from-scratch re-run (transfer + execution) for tasks requeued off a
/// draining/revoking instance. `remaining_preds` is mutated while projecting
/// firings; with `undo_log` non-null every decrement records its task there
/// and the caller restores (one increment per entry) instead of copying the
/// whole vector per tick. `result` is cleared and filled in place so a
/// persistent caller (the incremental lookahead) reuses its buffer capacity
/// across ticks instead of reallocating the Q_task vector every interval.
///
/// `plan_capture` turns on the Plan stamping pass: Q_task emission also
/// fills result.stamps (deadline/start/packed-occupancy per entry, in the
/// same steering-ready order) and runs the one Alg3Packer over the clamped
/// occupancies to stamp result.planned_pool — the exact value resize_pool
/// would recompute from result.upcoming, bit-equal because it is the same
/// packer class fed the same doubles in the same order. The incremental
/// lookahead enables it only on quiet (kIncremental) ticks; steer() then
/// consumes the stamp instead of rebuilding Q_task's occupancy vector.
/// `mem_of(task)` predicts the memory reservation (MB) a projected dispatch
/// of `task` would book — consulted only when config.memory is enabled, and
/// always live (never memoized): the memory predictor's percentile sizing is
/// O(1) per call, so memoizing it would buy nothing and would entangle the
/// memory dimension with the occupancy memo's revision contract.
///
/// Flattened: at -O2, gcc's max-inline-insns-single limit leaves the busy
/// heap's pop_heap/push_back, Alg3Packer and the emission-buffer
/// emplace_backs out of line in this loop, which makes the cached tick about
/// 1.5x slower (bench_overhead's cached/scratch ratio ~0.3 instead of ~0.2
/// at RelWithDebInfo, against its 0.25 bound).
template <typename RemainingOcc, typename FreshOcc, typename MemOf>
[[gnu::flatten]] void simulate_interval_impl(const dag::Workflow& workflow,
                            const sim::MonitorSnapshot& snapshot,
                            const sim::CloudConfig& config,
                            std::vector<std::uint32_t>& remaining_preds,
                            std::vector<dag::TaskId>* undo_log,
                            RemainingOcc&& remaining_occ, FreshOcc&& fresh_occ,
                            MemOf&& mem_of, const EmissionCap& cap,
                            const WavefrontCapture& capture,
                            PlanScratch& scratch, bool plan_capture,
                            LookaheadResult& result) {
  result.upcoming.clear();
  result.stamps.clear();
  result.restart_cost.clear();
  result.projected_completions = 0;
  result.truncated_tasks = 0;
  result.planned_pool = 0;
  result.plan_valid = false;
  using dag::TaskId;
  using sim::InstanceId;
  using sim::SimTime;
  using sim::TaskPhase;

  WIRE_REQUIRE(snapshot.tasks.size() == workflow.task_count(),
               "snapshot does not match the workflow");
  const SimTime now = snapshot.now;
  const SimTime horizon = now + config.lag_seconds;
  // Memory-on projections replace the free-slot heap with a per-instance
  // (slots, free memory) table mirroring the engine's ascending-id
  // first-fit admission scan; memory-off keeps the heap path untouched
  // (byte-identical to the pre-memory projection).
  const bool mem_on = config.memory.enabled();
  std::vector<ProjInstance>& mem_instances = scratch.mem_instances;
  mem_instances.clear();
  const auto mem_inst_of = [&](InstanceId id) -> ProjInstance& {
    const auto it = std::lower_bound(
        mem_instances.begin(), mem_instances.end(), id,
        [](const ProjInstance& p, InstanceId v) { return p.id < v; });
    WIRE_CHECK(it != mem_instances.end() && it->id == id,
               "projected instance vanished");
    return *it;
  };

  // Busy slots as a max-age heap ordered by LaterFinish (top = front,
  // earliest projected finish first).
  std::vector<BusySlot>& busy = scratch.busy;
  busy.clear();
  const auto busy_push = [&](const BusySlot& slot) {
    busy.push_back(slot);
    std::push_heap(busy.begin(), busy.end(), LaterFinish{});
  };
  const auto busy_pop = [&] {
    std::pop_heap(busy.begin(), busy.end(), LaterFinish{});
    busy.pop_back();
  };
  // Free slots as a min-heap of instance ids (duplicates = multiple free
  // slots): pops the lowest id exactly like the multiset this replaces, at a
  // fraction of the allocation cost.
  std::vector<InstanceId>& free_slots = scratch.free_slots;
  free_slots.clear();
  const auto free_push = [&](InstanceId inst) {
    free_slots.push_back(inst);
    std::push_heap(free_slots.begin(), free_slots.end(),
                   std::greater<InstanceId>{});
  };
  const auto free_pop = [&] {
    std::pop_heap(free_slots.begin(), free_slots.end(),
                  std::greater<InstanceId>{});
    free_slots.pop_back();
  };
  // FIFO ready queue as vector + cursor (entries before `ready_head` are
  // consumed); the queue only grows, so indices stay stable.
  std::vector<TaskId>& ready = scratch.ready;
  ready.assign(snapshot.ready_queue.begin(), snapshot.ready_queue.end());
  std::size_t ready_head = 0;
  // Tasks whose occupancy must be re-estimated from scratch (requeued off a
  // draining instance: their sunk progress is lost on restart).
  auto& occupancy_override = scratch.occupancy_override;
  occupancy_override.clear();
  // Instances booting within the interval: (boot time, id).
  auto& boots = scratch.boots;
  boots.clear();

  for (const sim::InstanceObservation& inst : snapshot.instances) {
    if (inst.draining || inst.revoking) {
      // Gone within the interval — at its charge boundary (drain) or at the
      // provider's announced reclamation (revocation notice): its tasks are
      // stranded and restart from zero, so the lookahead charges their full
      // re-run occupancy rather than the sunk-progress remainder.
      for (TaskId task : inst.running_tasks) {
        // A crash that raced the refresh can leave a requeued task both in
        // the instance's stale running_tasks list and in
        // snapshot.ready_queue. It is only stranded if the snapshot still
        // observes it Running; otherwise it is already queued and pushing it
        // here would project it twice (double dispatch, phantom load, and a
        // predecessor-underflow trip when both copies complete). Engine
        // snapshots are internally consistent, so this is the defensive
        // contract for archived or hand-built snapshots.
        if (snapshot.tasks[task].phase != TaskPhase::Running) continue;
        occupancy_override[task] = fresh_occ(task);
        ready.push_back(task);
      }
      continue;
    }
    if (inst.provisioning) {
      if (inst.ready_at <= horizon) boots.emplace_back(inst.ready_at, inst.id);
      continue;
    }
    double booked_mem = 0.0;
    for (TaskId task : inst.running_tasks) {
      BusySlot slot;
      slot.task = task;
      slot.instance = inst.id;
      slot.attempt_start = snapshot.tasks[task].occupancy_start;
      slot.finish = now + remaining_occ(task);
      slot.real = true;
      if (mem_on) {
        // An in-flight attempt's reservation is observable, not a
        // projection: the monitor reports what the dispatcher booked.
        slot.mem_mb = std::max(0.0, snapshot.tasks[task].mem_reservation_mb);
        booked_mem += slot.mem_mb;
      }
      busy_push(slot);
      if (capture.projected_running != nullptr) {
        capture.projected_running->push_back(task);
      }
    }
    if (mem_on) {
      mem_instances.push_back(
          ProjInstance{inst.id, inst.free_slots,
                       config.memory.instance_mem_mb - booked_mem});
    } else {
      for (std::uint32_t s = 0; s < inst.free_slots; ++s) {
        free_push(inst.id);
      }
    }
  }
  std::sort(boots.begin(), boots.end());
  if (mem_on) {
    std::sort(mem_instances.begin(), mem_instances.end(),
              [](const ProjInstance& a, const ProjInstance& b) {
                return a.id < b.id;
              });
  }

  const auto occupancy_of = [&](TaskId task) {
    if (!occupancy_override.empty()) {
      const auto it = occupancy_override.find(task);
      if (it != occupancy_override.end()) return it->second;
    }
    return remaining_occ(task);
  };

  const auto dispatch_at = [&](SimTime t) {
    if (mem_on) {
      // Mirror of JobEngine's memory-aware admission: head-of-line FIFO —
      // the ascending-id scan takes the first instance with both a free
      // slot and enough free memory for the head task's reservation, and a
      // head that fits nowhere blocks the whole queue (no backfilling, in
      // the engine and here alike).
      while (ready_head < ready.size()) {
        const TaskId task = ready[ready_head];
        const double mem = mem_of(task);
        ProjInstance* target = nullptr;
        for (ProjInstance& pi : mem_instances) {
          if (pi.free_slots > 0 && pi.free_mem + 1e-9 >= mem) {
            target = &pi;
            break;
          }
        }
        if (target == nullptr) return;
        ++ready_head;
        --target->free_slots;
        target->free_mem -= mem;
        BusySlot slot;
        slot.task = task;
        slot.instance = target->id;
        slot.attempt_start = t;
        slot.finish = t + occupancy_of(task);
        slot.mem_mb = mem;
        busy_push(slot);
        if (capture.projected_running != nullptr) {
          capture.projected_running->push_back(task);
        }
      }
      return;
    }
    while (ready_head < ready.size() && !free_slots.empty()) {
      const TaskId task = ready[ready_head++];
      const InstanceId inst = free_slots.front();
      free_pop();
      BusySlot slot;
      slot.task = task;
      slot.instance = inst;
      slot.attempt_start = t;
      slot.finish = t + occupancy_of(task);
      busy_push(slot);
      if (capture.projected_running != nullptr) {
        capture.projected_running->push_back(task);
      }
    }
  };

  dispatch_at(now);

  // Observed-running tasks whose completion within the interval is predicted
  // but not yet observed. Their successors fire (that is the point of the
  // workflow simulator), but their slot is NOT released to the projected
  // ready queue and they stay in Q_task: the completion is speculative, the
  // predictions are conservative minimums, and handing the slot to queued
  // work would hide real queue pressure from the pool sizing. The full slot
  // record is kept (not just the task id) so the Plan stamps below can carry
  // the projected deadline and attempt start.
  std::vector<BusySlot>& speculative = scratch.speculative;
  speculative.clear();
  std::size_t boot_cursor = 0;
  for (;;) {
    const SimTime next_finish = busy.empty()
                                    ? std::numeric_limits<SimTime>::infinity()
                                    : busy.front().finish;
    const SimTime next_boot = boot_cursor < boots.size()
                                  ? boots[boot_cursor].first
                                  : std::numeric_limits<SimTime>::infinity();
    const SimTime next_event = std::min(next_finish, next_boot);
    if (next_event > horizon) break;

    if (next_boot <= next_finish) {
      const InstanceId inst = boots[boot_cursor++].second;
      if (mem_on) {
        mem_instances.insert(
            std::lower_bound(
                mem_instances.begin(), mem_instances.end(), inst,
                [](const ProjInstance& p, InstanceId v) { return p.id < v; }),
            ProjInstance{inst, config.slots_per_instance,
                         config.memory.instance_mem_mb});
      } else {
        for (std::uint32_t s = 0; s < config.slots_per_instance; ++s) {
          free_push(inst);
        }
      }
      dispatch_at(next_boot);
      continue;
    }

    const BusySlot done = busy.front();
    busy_pop();
    ++result.projected_completions;
    if (capture.projected_complete != nullptr) {
      capture.projected_complete->push_back(done.task);
    }
    for (TaskId succ : workflow.successors(done.task)) {
      WIRE_CHECK(remaining_preds[succ] > 0, "predecessor underflow");
      if (undo_log != nullptr) undo_log->push_back(succ);
      if (--remaining_preds[succ] == 0) {
        ready.push_back(succ);
      }
    }
    if (done.real) {
      speculative.push_back(done);
      continue;
    }
    if (mem_on) {
      ProjInstance& pi = mem_inst_of(done.instance);
      ++pi.free_slots;
      pi.free_mem += done.mem_mb;
    } else {
      free_push(done.instance);
    }
    dispatch_at(done.finish);
  }

  // Q_task: tasks on slots at the horizon (by projected completion), then the
  // projected ready queue in dispatch order. One Alg3Packer serves both the
  // adaptive cap's stopping rule and the Plan stamp; they are fed the same
  // steering-clamped occupancies resize_pool would see.
  const bool pack = cap.enabled || plan_capture;
  Alg3Packer packer(config.charging_unit_seconds, config.slots_per_instance,
                    config.restart_cost_fraction,
                    mem_on ? config.memory.instance_mem_mb : 0.0);
  result.upcoming.reserve(busy.size() + speculative.size() +
                          (ready.size() - ready_head));
  if (plan_capture) result.stamps.reserve(result.upcoming.capacity());
  std::vector<BusySlot>& still_busy = scratch.still_busy;
  still_busy.clear();
  while (!busy.empty()) {
    still_busy.push_back(busy.front());
    busy_pop();
  }
  for (const BusySlot& slot : still_busy) {
    const double occ = std::max(0.0, slot.finish - horizon);
    result.upcoming.push_back(
        UpcomingTask{occ, slot.task, /*on_slot=*/true, slot.mem_mb});
    if (pack) {
      packer.add(std::max(occ, config.charging_unit_seconds), slot.mem_mb);
    }
    if (plan_capture) {
      result.stamps.push_back(
          WavefrontStamp{slot.finish, slot.attempt_start,
                         std::max(occ, config.charging_unit_seconds),
                         slot.instance});
    }
    auto [it, inserted] = result.restart_cost.try_emplace(slot.instance, 0.0);
    it->second = std::max(it->second, horizon - slot.attempt_start);
  }
  for (const BusySlot& done : speculative) {
    result.upcoming.push_back(
        UpcomingTask{0.0, done.task, /*on_slot=*/true, done.mem_mb});
    if (pack) packer.add(config.charging_unit_seconds, done.mem_mb);
    if (plan_capture) {
      // deadline <= horizon distinguishes a speculatively completed slot
      // from a still-busy one (whose finish is strictly past the horizon):
      // only the latter carry restart cost.
      result.stamps.push_back(WavefrontStamp{done.finish, done.attempt_start,
                                             config.charging_unit_seconds,
                                             done.instance});
    }
  }
  // On-slot entries are never truncated (their restart costs are charged
  // above regardless); only the queue tail is.
  std::uint32_t remaining_ready =
      static_cast<std::uint32_t>(ready.size() - ready_head);
  for (std::size_t q = ready_head; q < ready.size(); ++q) {
    if (cap.enabled && packer.count() >= cap.target_pool) {
      result.truncated_tasks = remaining_ready;
      break;
    }
    const TaskId task = ready[q];
    const double occ = occupancy_of(task);
    const double mem = mem_on ? mem_of(task) : 0.0;
    result.upcoming.push_back(UpcomingTask{occ, task, /*on_slot=*/false, mem});
    if (pack) packer.add(occ, mem);
    if (plan_capture) {
      result.stamps.push_back(
          WavefrontStamp{-1.0, -1.0, occ, sim::kInvalidInstance});
    }
    --remaining_ready;
  }
  if (plan_capture) {
    result.plan_valid = true;
    if (!result.upcoming.empty()) result.planned_pool = packer.finish();
  }
}

}  // namespace wire::core::detail
