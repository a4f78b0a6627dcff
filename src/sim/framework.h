// The framework master — our Pegasus WMS / HTCondor stand-in.
//
// Guards the DAG order, runs the ready queue, binds tasks to instance slots,
// collects kickstart-style records, and resubmits tasks whose instance was
// released under them. Dispatch order is FIFO by ready time, except that the
// first five ready tasks of each stage are raised to high priority — the
// paper's 94-line Condor patch that feeds the online predictor early
// observations per stage (§III-C).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "dag/workflow.h"
#include "sim/config.h"
#include "sim/monitor.h"
#include "util/check.h"

namespace wire::sim {

class MonitorStore;

/// Internal per-task lifecycle record (superset of TaskObservation).
struct TaskRuntime {
  TaskPhase phase = TaskPhase::Pending;
  std::uint32_t remaining_preds = 0;
  SimTime ready_at = -1.0;
  SimTime occupancy_start = -1.0;
  SimTime exec_start = -1.0;
  SimTime completed_at = -1.0;
  double transfer_in_time = -1.0;
  double exec_time = -1.0;
  double transfer_out_time = -1.0;
  InstanceId instance = kInvalidInstance;
  std::uint32_t slot = 0;
  std::uint32_t attempts = 0;
  /// Execution seconds salvaged from killed attempts via checkpointing
  /// (reduces the next attempt's execution time). 0 when checkpointing is
  /// disabled.
  double salvaged_exec = 0.0;
  /// Holds the stage's first-five promotion across resubmissions.
  bool high_priority = false;
  /// Transient (fault-injected) failures of this task. Instance-release
  /// restarts are counted in `attempts`/total_restarts, not here.
  std::uint32_t failed_attempts = 0;
  /// Occupancy seconds the most recent failed attempt had accumulated when
  /// it died; < 0 if the task never failed transiently.
  double last_failed_elapsed = -1.0;
  /// Poison task: exhausted its retries (or descends from a task that did).
  /// Stays Pending forever; counts as resolved for run completion.
  bool quarantined = false;

  // --- Memory dimension (inert when MemoryConfig is off) ---
  /// Memory booked against the hosting instance for the current/last
  /// attempt, MB; < 0 if never dispatched with a reservation.
  double mem_reservation_mb = -1.0;
  /// Ground-truth peak of this task, MB; drawn once by the engine at first
  /// execution start and cached (< 0 until drawn). The controller never
  /// sees it before completion.
  double true_peak_mem_mb = -1.0;
  /// OOM kills of this task (separate from failed_attempts: OOM retries are
  /// sizing errors, not transient faults).
  std::uint32_t oom_attempts = 0;

  // --- Scheduled checkpointing (inert when CheckpointConfig is off) ---
  /// Execution seconds of the current attempt covered by its last *completed*
  /// checkpoint write (what a kill salvages under scheduled checkpointing).
  double ckpt_durable_exec = 0.0;
  /// Staging slot the engine fills immediately before a kill with the
  /// attempt's actual execution progress in seconds (the engine tracks
  /// checkpoint stalls, so wall time since exec_start overstates it); < 0 =
  /// derive progress from exec_start.
  double ckpt_progress_exec = -1.0;
  /// Pure execution seconds of a completed attempt as reported by the
  /// engine (checkpoint-write stalls excluded); < 0 = use wall exec time.
  double ckpt_pure_exec = -1.0;
};

class FrameworkMaster {
 public:
  /// Binds to a workflow (kept by reference; must outlive the master) and
  /// enqueues its root tasks as ready at time 0. `first_fire_priority` is
  /// the per-stage count of ready tasks promoted to high dispatch priority
  /// (the paper's Condor patch uses 5).
  /// `scheduled_checkpoints` switches the salvage model from the legacy
  /// instantaneous `checkpoint_fraction` rule to explicit checkpoint events:
  /// a killed attempt salvages exactly its last committed checkpoint.
  explicit FrameworkMaster(const dag::Workflow& workflow,
                           std::uint32_t first_fire_priority = 5,
                           double checkpoint_fraction = 0.0,
                           bool scheduled_checkpoints = false);

  // --- Ready queue ---
  bool has_ready() const { return !ready_[0].empty() || !ready_[1].empty(); }
  std::size_t ready_count() const { return ready_[0].size() + ready_[1].size(); }
  /// Next task in dispatch order without removing it.
  std::optional<dag::TaskId> peek_ready() const;
  /// Removes and returns the next task in dispatch order.
  dag::TaskId pop_ready();
  /// Overwrites `out` with the ready-queue contents in dispatch order (for
  /// monitoring; reuses `out`'s capacity).
  void ready_queue_snapshot(std::vector<dag::TaskId>& out) const;

  // --- Lifecycle transitions (driven by the simulator) ---
  /// Binds a ready task to (instance, slot); begins occupancy at `now`.
  /// `mem_reservation_mb` >= 0 books that much memory against the instance
  /// (memory dimension on); < 0 books nothing (memory off).
  void on_dispatch(dag::TaskId task, InstanceId instance, std::uint32_t slot,
                   SimTime now, double mem_reservation_mb = -1.0);
  /// Input transfer finished; execution begins.
  void on_transfer_in_done(dag::TaskId task, SimTime now);
  /// Execution finished; output transfer begins. `pure_exec_seconds` >= 0
  /// reports the attempt's execution time with checkpoint-write stalls
  /// excluded (scheduled checkpointing); < 0 = wall time since exec_start.
  void on_exec_done(dag::TaskId task, SimTime now,
                    double pure_exec_seconds = -1.0);
  /// Output transfer finished; task completes, slot frees. Returns how many
  /// successors became ready (they are already enqueued).
  std::uint32_t on_complete(dag::TaskId task, SimTime now);
  /// Kills and re-enqueues every task currently occupying a slot on
  /// `instance` (the instance is being released). Returns the killed tasks.
  std::vector<dag::TaskId> resubmit_tasks_on(InstanceId instance, SimTime now);

  // --- Fault handling (transient task failures) ---
  /// A running attempt died mid-execution: frees the slot, charges the
  /// occupancy so far as wasted, returns the task to Pending (the engine
  /// schedules the backoff retry or quarantines). Returns the task's new
  /// transient-failure count.
  std::uint32_t on_task_failed(dag::TaskId task, SimTime now);
  /// Re-enqueues a previously failed task whose retry backoff elapsed.
  /// Requires it to be Pending, unquarantined, with no open predecessors.
  void requeue_failed(dag::TaskId task, SimTime now);
  // --- Memory dimension ---
  /// A running attempt exceeded its reservation and was OOM-killed: frees
  /// the slot and the reservation, charges the occupancy as wasted, returns
  /// the task to Pending. Bumps oom_attempts (NOT failed_attempts — the
  /// exec-time failure harvest stays uncontaminated). Returns the task's new
  /// OOM count.
  std::uint32_t on_task_oom(dag::TaskId task, SimTime now);
  /// Caches the ground-truth peak the engine drew for this task.
  void set_true_peak_mem(dag::TaskId task, double peak_mb);

  // --- Scheduled checkpointing ---
  /// A checkpoint write for `task`'s current attempt finished on the shared
  /// channel: `durable_exec_seconds` of this attempt's execution are now
  /// recoverable. Forwards to the monitor store (TaskObservation::
  /// checkpointed_exec).
  void on_checkpoint_committed(dag::TaskId task, double durable_exec_seconds);
  /// Immediately before a kill, the engine stages the attempt's actual
  /// execution progress (wall time minus checkpoint stalls) so the kill
  /// paths charge true lost work instead of wall time.
  void stage_kill_progress(dag::TaskId task, double progress_exec_seconds);
  /// Memory currently booked on `instance`, MB (0 if none/unknown).
  double mem_used(InstanceId instance) const {
    return instance < instances_.size() ? instances_[instance].mem_used : 0.0;
  }

  /// Quarantines a poison task together with every (transitively) dependent
  /// descendant — all necessarily Pending, since an incomplete ancestor
  /// blocks them. Returns the newly quarantined tasks. Quarantined tasks
  /// count as resolved for all_complete().
  std::vector<dag::TaskId> quarantine(dag::TaskId task);

  // --- Slot bookkeeping ---
  /// Registers an instance with `slots` > 0 task slots (idempotent).
  void register_instance(InstanceId instance, std::uint32_t slots);
  /// Empty slots on `instance`; 0 if it was never registered. O(1).
  std::uint32_t free_slots(InstanceId instance) const {
    return instance < instances_.size() ? instances_[instance].free : 0;
  }
  /// Lowest-index free slot on `instance`; requires free_slots > 0.
  std::uint32_t take_free_slot(InstanceId instance) const;
  /// Tasks occupying `instance`'s slots, in slot order.
  std::vector<dag::TaskId> tasks_on(InstanceId instance) const;
  /// Same, appended to `out` (reuses its capacity on the monitoring path).
  void append_tasks_on(InstanceId instance,
                       std::vector<dag::TaskId>& out) const;

  // --- Progress / accounting ---
  /// True when every task is resolved: completed, or quarantined as poison.
  bool all_complete() const {
    return completed_ + quarantined_ == workflow_->task_count();
  }
  std::size_t completed_count() const { return completed_; }
  std::uint32_t total_restarts() const { return restarts_; }
  /// Total transient task failures across all tasks.
  std::uint32_t total_task_faults() const { return task_faults_; }
  /// Slot-seconds consumed by successful occupancy phases so far.
  double busy_slot_seconds() const { return busy_slot_seconds_; }
  /// Slot-seconds consumed by attempts that were killed (sunk cost paid).
  double wasted_slot_seconds() const { return wasted_slot_seconds_; }
  /// Execution seconds of killed attempts that no checkpoint (legacy
  /// fraction or committed write) salvaged — the rollback-waste numerator
  /// of the checkpoint study. Accounted in every salvage mode.
  double lost_work_seconds() const { return lost_work_seconds_; }
  /// Total OOM kills across all tasks.
  std::uint32_t total_oom_kills() const { return oom_kills_; }
  /// MB-seconds of reserved memory over all occupancy (every attempt holds
  /// its reservation from dispatch to slot release) — the wastage numerator.
  double mem_reserved_mb_seconds() const { return mem_reserved_mb_seconds_; }
  /// MB-seconds actually needed: true peak times the occupancy of successful
  /// attempts — the wastage denominator (what a clairvoyant sizer would
  /// book).
  double mem_used_mb_seconds() const { return mem_used_mb_seconds_; }

  const TaskRuntime& runtime(dag::TaskId task) const {
    WIRE_REQUIRE(task < runtimes_.size(), "unknown task id");
    return runtimes_[task];
  }
  const dag::Workflow& workflow() const { return *workflow_; }

  /// Attaches an incremental monitoring store (may be null to detach). The
  /// master notifies it at every observable lifecycle transition; the store's
  /// constructor journals the t = 0 bootstrap (roots fired as Ready) that
  /// this constructor performs before any store can be attached. The store
  /// must outlive the master or be detached first.
  void set_monitor_store(MonitorStore* store) { store_ = store; }

 private:
  /// One dispatch class of the ready queue: entries[head..] in (ready time,
  /// id) order. The engine enqueues at its current time, which never goes
  /// back, so an insert lands at or next to the tail; a pop moves `head`
  /// instead of shifting the vector.
  struct ReadyClass {
    std::vector<std::pair<SimTime, dag::TaskId>> entries;
    std::size_t head = 0;
    bool empty() const { return head == entries.size(); }
    std::size_t size() const { return entries.size() - head; }
  };

  /// One row of the slot table: the task in each slot (kInvalidTask when
  /// empty), how many slots are empty, and the memory booked on the
  /// instance. A row with no slots is an unregistered instance.
  struct InstanceSlots {
    std::vector<dag::TaskId> slots;
    std::uint32_t free = 0;
    double mem_used = 0.0;
  };

  void enqueue_ready(dag::TaskId task, SimTime now);
  TaskRuntime& mutable_runtime(dag::TaskId task) {
    WIRE_REQUIRE(task < runtimes_.size(), "unknown task id");
    return runtimes_[task];
  }
  bool registered(InstanceId instance) const {
    return instance < instances_.size() && !instances_[instance].slots.empty();
  }
  /// Empties the slot `rt` occupies on its instance.
  void free_slot_of(const TaskRuntime& rt, dag::TaskId task);
  /// Shared kill-path salvage + lost-work accounting. `allow_legacy_salvage`
  /// mirrors the historical asymmetry: only instance-release kills salvage
  /// under the legacy fraction model (a crashed process died at an unknown
  /// point), while scheduled checkpoints recover committed progress on every
  /// kill kind.
  void salvage_on_kill(TaskRuntime& rt, SimTime now, bool allow_legacy_salvage);
  /// Releases a runtime's booked reservation (slot is being freed) and
  /// accumulates the reserved-MB-seconds wastage numerator.
  void release_memory(TaskRuntime& rt, SimTime now);

  const dag::Workflow* workflow_;
  std::uint32_t first_fire_priority_;
  double checkpoint_fraction_;
  bool scheduled_checkpoints_;
  std::vector<TaskRuntime> runtimes_;
  // Dispatch order: (priority class, ready time, id). Class 0 = first-five.
  std::array<ReadyClass, 2> ready_;
  std::vector<std::uint32_t> stage_priority_granted_;
  /// Slot table indexed by InstanceId (ids are dense and increasing per
  /// engine, so the table grows with the instances ever registered).
  std::vector<InstanceSlots> instances_;
  MonitorStore* store_ = nullptr;
  std::size_t completed_ = 0;
  std::size_t quarantined_ = 0;
  std::uint32_t restarts_ = 0;
  std::uint32_t task_faults_ = 0;
  double busy_slot_seconds_ = 0.0;
  double wasted_slot_seconds_ = 0.0;
  double lost_work_seconds_ = 0.0;
  std::uint32_t oom_kills_ = 0;
  double mem_reserved_mb_seconds_ = 0.0;
  double mem_used_mb_seconds_ = 0.0;
};

}  // namespace wire::sim
