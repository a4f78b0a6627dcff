// Incrementally maintained monitoring state — the Monitor phase of the MAPE
// loop as a delta-journaled store instead of a per-tick rebuild.
//
// The engine (and its framework master) notify the store at exactly the
// events that change a controller-visible observation: a task fires, is
// dispatched, finishes its input transfer, completes, or is restarted; an
// instance is requested or terminated. The store applies each change to its
// resident MonitorSnapshot in place and journals it, so producing the
// snapshot at a control tick costs O(running tasks + live instances + ready
// queue) — the active set — instead of O(total tasks). On Epigenomics-L
// (4005 tasks) with a 12-instance site that is two orders of magnitude.
//
// The from-scratch reference path lives test-only in
// tests/oracle/snapshot_oracle.h; tests/test_sim_monitor_store.cpp asserts
// field-for-field equivalence at every tick over fuzzed runs with restarts,
// forced drains, and cap changes.
//
// The store publishes nothing a policy could not already derive by diffing
// consecutive snapshots (MonitorDelta documents this), so the honest
// information boundary of monitor.h is unchanged.
#pragma once

#include <cstdint>
#include <vector>

#include "dag/workflow.h"
#include "sim/cloud.h"
#include "sim/config.h"
#include "sim/framework.h"
#include "sim/monitor.h"

namespace wire::sim {

class MonitorStore {
 public:
  /// Binds to a workflow (kept by reference; must outlive the store) and
  /// journals the bootstrap state directly: every task starts Pending except
  /// the workflow roots, which a FrameworkMaster enqueues as Ready at time 0
  /// in its own constructor (before any store can be attached). Baking that
  /// invariant in here replaces the former one-time O(tasks) sync() pass;
  /// the bootstrap is the first snapshot's baseline, so the journal starts
  /// empty and the first delta covers changes from t = 0 on.
  explicit MonitorStore(const dag::Workflow& workflow);

  // --- Task hooks (driven by FrameworkMaster) ---
  /// Task became Ready: a fresh fire or a restart after its instance was
  /// released. Resets every attempt-scoped field.
  void on_task_ready(dag::TaskId task, SimTime now, std::uint32_t attempts);
  /// Task bound to (instance, slot); occupancy starts at `now`.
  /// `mem_reservation_mb` < 0 = no reservation (memory dimension off).
  void on_task_dispatched(dag::TaskId task, InstanceId instance, SimTime now,
                          std::uint32_t attempts,
                          double mem_reservation_mb = -1.0);
  /// Input transfer finished; execution starts at `now`.
  void on_transfer_in_done(dag::TaskId task, double transfer_in_time,
                           SimTime now);
  /// Task completed with its kickstart record. `peak_mem_mb` < 0 = no
  /// memory measurement (memory dimension off).
  void on_task_completed(dag::TaskId task, double exec_time,
                         double transfer_time, double peak_mem_mb = -1.0);
  /// A running attempt died transiently (fault injection): the task drops
  /// back to Pending awaiting its retry backoff (or quarantine).
  void on_task_failed(dag::TaskId task, std::uint32_t attempts,
                      std::uint32_t failed_attempts, double elapsed);
  /// A running attempt was OOM-killed: back to Pending awaiting its upsized
  /// retry (or quarantine). Listed in MonitorDelta::failed like a transient
  /// failure, but failed_attempts is untouched — consumers discriminate via
  /// TaskObservation::oom_attempts.
  void on_task_oom(dag::TaskId task, std::uint32_t attempts,
                   std::uint32_t oom_attempts);
  /// A checkpoint write committed for `task`'s current attempt:
  /// TaskObservation::checkpointed_exec now covers `durable_exec_seconds`.
  /// Not journaled — like elapsed/elapsed_exec it is an attribute of the
  /// running attempt, visible in the task row itself, and resets with the
  /// attempt (on_task_ready).
  void on_checkpoint_committed(dag::TaskId task, double durable_exec_seconds);

  // --- Instance hooks (driven by JobEngine) ---
  void on_instance_added(InstanceId instance);
  void on_instance_removed(InstanceId instance);

  // --- Step batching (driven by JobEngine) ---
  /// Brackets one engine step: between begin_step and end_step,
  /// journal_phase_change appends raw task ids to a step buffer (branchless)
  /// instead of running the stamp-dedup per event; end_step coalesces the
  /// buffer into the pending journal in one pass. During a dispatch storm
  /// (an instance boot binding dozens of tasks in one event) that is one
  /// coalesce per step instead of one dedup probe per transition. A refresh
  /// mid-step (control ticks fire inside a step) flushes the buffer first,
  /// so published deltas are identical to the per-event path.
  void begin_step() { in_step_ = true; }
  void end_step() {
    if (!step_phase_.empty()) flush_step();
    in_step_ = false;
  }

  /// Finalizes the per-tick view: refreshes the time-dependent fields of the
  /// running set, rebuilds the instance rows (O(live)) and the ready queue
  /// (O(ready)), publishes the accumulated delta journal (exact = true), and
  /// returns the snapshot. `pool_cap` follows MonitorSnapshot semantics
  /// (kNoInstanceCap = unlimited).
  const MonitorSnapshot& refresh(SimTime now, std::uint32_t pool_cap,
                                 const CloudPool& cloud,
                                 const FrameworkMaster& framework,
                                 const CloudConfig& config);

  /// Like refresh but without consuming the journal: the returned snapshot
  /// carries an empty, non-exact delta and the pending journal stays intact
  /// for the next real refresh. Safe to call between events (benches, tests)
  /// without perturbing the run.
  const MonitorSnapshot& peek(SimTime now, std::uint32_t pool_cap,
                              const CloudPool& cloud,
                              const FrameworkMaster& framework,
                              const CloudConfig& config);

  /// Tasks currently observed Running — O(1), matches the snapshot's
  /// Running-phase count.
  std::uint32_t running_count() const {
    return static_cast<std::uint32_t>(running_.size());
  }

  /// Resident footprint in bytes (overhead accounting).
  std::size_t state_bytes() const;

 private:
  void refresh_fields(SimTime now, std::uint32_t pool_cap,
                      const CloudPool& cloud, const FrameworkMaster& framework,
                      const CloudConfig& config);
  void journal_phase_change(dag::TaskId task);
  /// Stamp-dedup coalesce of the step buffer into the pending journal.
  void flush_step();
  void running_insert(dag::TaskId task);
  void running_erase(dag::TaskId task);

  /// The lifecycle-relevant projection of one instance row, kept from the
  /// previous *published* snapshot so refresh can diff rows into
  /// MonitorDelta::instances_changed. Peeks do not update it: a dropout
  /// tick's lifecycle changes coalesce into the next exact delta.
  struct InstanceLifecycle {
    InstanceId id = kInvalidInstance;
    bool provisioning = false;
    bool draining = false;
    bool revoking = false;
    SimTime ready_at = 0.0;
    SimTime revoke_at = -1.0;
  };

  const dag::Workflow* workflow_;
  MonitorSnapshot snap_;
  /// Execution-start time of each task's current attempt (< 0 while still
  /// transferring input). Internal only — never surfaced to policies.
  std::vector<SimTime> exec_start_;
  /// Tasks observed Running, with O(1) membership (index + 1; 0 = absent).
  std::vector<dag::TaskId> running_;
  std::vector<std::uint32_t> running_pos_;
  /// Accumulating journal, published (swapped into snap_.delta) at refresh.
  MonitorDelta pending_;
  /// Dedup stamp for pending_.phase_changed (== journal_epoch_ when already
  /// journaled this interval).
  std::vector<std::uint64_t> phase_stamp_;
  std::uint64_t journal_epoch_ = 1;
  /// Raw (possibly duplicated) phase changes of the current engine step.
  std::vector<dag::TaskId> step_phase_;
  bool in_step_ = false;
  /// Sorted-by-id lifecycle rows of the last published snapshot (and a
  /// scratch buffer reused across refreshes).
  std::vector<InstanceLifecycle> prev_lifecycle_;
  std::vector<InstanceLifecycle> cur_lifecycle_;
};

}  // namespace wire::sim
