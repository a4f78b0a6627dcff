#include "sim/framework.h"

#include <algorithm>

#include "sim/monitor_store.h"
#include "util/check.h"

namespace wire::sim {

using dag::TaskId;

FrameworkMaster::FrameworkMaster(const dag::Workflow& workflow,
                                 std::uint32_t first_fire_priority,
                                 double checkpoint_fraction,
                                 bool scheduled_checkpoints)
    : workflow_(&workflow),
      first_fire_priority_(first_fire_priority),
      checkpoint_fraction_(checkpoint_fraction),
      scheduled_checkpoints_(scheduled_checkpoints),
      runtimes_(workflow.task_count()),
      stage_priority_granted_(workflow.stage_count(), 0) {
  for (const dag::TaskSpec& t : workflow.tasks()) {
    runtimes_[t.id].remaining_preds =
        static_cast<std::uint32_t>(workflow.predecessors(t.id).size());
  }
  for (TaskId root : workflow.roots()) {
    enqueue_ready(root, 0.0);
  }
}

void FrameworkMaster::enqueue_ready(TaskId task, SimTime now) {
  TaskRuntime& rt = mutable_runtime(task);
  WIRE_CHECK(rt.phase == TaskPhase::Pending || rt.phase == TaskPhase::Running,
             "enqueue_ready from invalid phase");
  const dag::StageId stage = workflow_->task(task).stage;
  if (!rt.high_priority &&
      stage_priority_granted_[stage] < first_fire_priority_) {
    rt.high_priority = true;
    ++stage_priority_granted_[stage];
  }
  rt.phase = TaskPhase::Ready;
  rt.ready_at = now;
  rt.occupancy_start = -1.0;
  rt.exec_start = -1.0;
  rt.instance = kInvalidInstance;
  ReadyClass& cls = ready_[rt.high_priority ? 0 : 1];
  const std::pair<SimTime, TaskId> key{now, task};
  std::size_t pos = cls.entries.size();
  while (pos > cls.head && key < cls.entries[pos - 1]) --pos;
  cls.entries.insert(cls.entries.begin() + static_cast<std::ptrdiff_t>(pos),
                     key);
  if (store_ != nullptr) store_->on_task_ready(task, now, rt.attempts);
}

std::optional<TaskId> FrameworkMaster::peek_ready() const {
  for (const ReadyClass& cls : ready_) {
    if (!cls.empty()) return cls.entries[cls.head].second;
  }
  return std::nullopt;
}

TaskId FrameworkMaster::pop_ready() {
  WIRE_REQUIRE(has_ready(), "pop_ready on empty queue");
  ReadyClass& cls = ready_[ready_[0].empty() ? 1 : 0];
  const TaskId task = cls.entries[cls.head++].second;
  if (cls.empty()) {
    cls.entries.clear();
    cls.head = 0;
  } else if (cls.head >= 64 && 2 * cls.head >= cls.entries.size()) {
    // Drop the popped prefix once it is at least half the vector, so the
    // copy is paid for by the pops that made it.
    cls.entries.erase(
        cls.entries.begin(),
        cls.entries.begin() + static_cast<std::ptrdiff_t>(cls.head));
    cls.head = 0;
  }
  return task;
}

void FrameworkMaster::ready_queue_snapshot(std::vector<TaskId>& out) const {
  out.clear();
  for (const ReadyClass& cls : ready_) {
    for (std::size_t i = cls.head; i < cls.entries.size(); ++i) {
      out.push_back(cls.entries[i].second);
    }
  }
}

void FrameworkMaster::register_instance(InstanceId instance,
                                        std::uint32_t slots) {
  WIRE_REQUIRE(slots > 0, "an instance needs at least one slot");
  if (instance >= instances_.size()) instances_.resize(instance + 1);
  InstanceSlots& row = instances_[instance];
  if (row.slots.empty()) {
    row.slots.assign(slots, dag::kInvalidTask);
    row.free = slots;
  }
}

std::uint32_t FrameworkMaster::take_free_slot(InstanceId instance) const {
  WIRE_REQUIRE(registered(instance), "instance not registered");
  const std::vector<TaskId>& slots = instances_[instance].slots;
  for (std::uint32_t s = 0; s < slots.size(); ++s) {
    if (slots[s] == dag::kInvalidTask) return s;
  }
  WIRE_REQUIRE(false, "no free slot on instance");
  return 0;
}

std::vector<TaskId> FrameworkMaster::tasks_on(InstanceId instance) const {
  std::vector<TaskId> out;
  append_tasks_on(instance, out);
  return out;
}

void FrameworkMaster::append_tasks_on(InstanceId instance,
                                      std::vector<TaskId>& out) const {
  if (instance >= instances_.size()) return;
  for (TaskId t : instances_[instance].slots) {
    if (t != dag::kInvalidTask) out.push_back(t);
  }
}

void FrameworkMaster::free_slot_of(const TaskRuntime& rt, TaskId task) {
  WIRE_CHECK(registered(rt.instance), "task on unknown instance");
  InstanceSlots& row = instances_[rt.instance];
  WIRE_CHECK(row.slots[rt.slot] == task, "task not in its slot");
  row.slots[rt.slot] = dag::kInvalidTask;
  ++row.free;
}

void FrameworkMaster::on_dispatch(TaskId task, InstanceId instance,
                                  std::uint32_t slot, SimTime now,
                                  double mem_reservation_mb) {
  TaskRuntime& rt = mutable_runtime(task);
  WIRE_REQUIRE(rt.phase == TaskPhase::Ready, "dispatch of non-ready task");
  WIRE_REQUIRE(registered(instance), "dispatch to unregistered instance");
  InstanceSlots& row = instances_[instance];
  WIRE_REQUIRE(slot < row.slots.size(), "slot index out of range");
  WIRE_REQUIRE(row.slots[slot] == dag::kInvalidTask, "slot already occupied");

  row.slots[slot] = task;
  --row.free;
  rt.phase = TaskPhase::Running;
  rt.occupancy_start = now;
  rt.exec_start = -1.0;
  rt.transfer_in_time = -1.0;
  rt.instance = instance;
  rt.slot = slot;
  ++rt.attempts;
  rt.mem_reservation_mb = mem_reservation_mb;
  if (mem_reservation_mb >= 0.0) {
    row.mem_used += mem_reservation_mb;
  }
  if (store_ != nullptr) {
    store_->on_task_dispatched(task, instance, now, rt.attempts,
                               mem_reservation_mb);
  }
}

void FrameworkMaster::release_memory(TaskRuntime& rt, SimTime now) {
  if (rt.mem_reservation_mb < 0.0) return;
  mem_reserved_mb_seconds_ +=
      rt.mem_reservation_mb * (now - rt.occupancy_start);
  WIRE_CHECK(registered(rt.instance), "reservation on unknown instance");
  double& used = instances_[rt.instance].mem_used;
  used -= rt.mem_reservation_mb;
  if (used < 1e-9) used = 0.0;  // absorb FP residue
}

void FrameworkMaster::set_true_peak_mem(TaskId task, double peak_mb) {
  mutable_runtime(task).true_peak_mem_mb = peak_mb;
}

void FrameworkMaster::on_checkpoint_committed(TaskId task,
                                              double durable_exec_seconds) {
  TaskRuntime& rt = mutable_runtime(task);
  WIRE_REQUIRE(rt.phase == TaskPhase::Running,
               "checkpoint commit for a task that is not running");
  WIRE_CHECK(durable_exec_seconds >= rt.ckpt_durable_exec,
             "checkpoint commits must cover monotone progress");
  rt.ckpt_durable_exec = durable_exec_seconds;
  if (store_ != nullptr) {
    store_->on_checkpoint_committed(task, durable_exec_seconds);
  }
}

void FrameworkMaster::stage_kill_progress(TaskId task,
                                          double progress_exec_seconds) {
  mutable_runtime(task).ckpt_progress_exec = progress_exec_seconds;
}

void FrameworkMaster::on_transfer_in_done(TaskId task, SimTime now) {
  TaskRuntime& rt = mutable_runtime(task);
  WIRE_REQUIRE(rt.phase == TaskPhase::Running, "transfer_in_done on non-running task");
  rt.transfer_in_time = now - rt.occupancy_start;
  rt.exec_start = now;
  if (store_ != nullptr) {
    store_->on_transfer_in_done(task, rt.transfer_in_time, now);
  }
}

void FrameworkMaster::on_exec_done(TaskId task, SimTime now,
                                   double pure_exec_seconds) {
  TaskRuntime& rt = mutable_runtime(task);
  WIRE_REQUIRE(rt.phase == TaskPhase::Running, "exec_done on non-running task");
  WIRE_CHECK(rt.exec_start >= 0.0, "exec_done before transfer_in_done");
  // Wall time; on_complete needs it to place the output transfer. The pure
  // (stall-free) time replaces it in the completed observation there.
  rt.exec_time = now - rt.exec_start;
  rt.ckpt_pure_exec = pure_exec_seconds;
}

std::uint32_t FrameworkMaster::on_complete(TaskId task, SimTime now) {
  TaskRuntime& rt = mutable_runtime(task);
  WIRE_REQUIRE(rt.phase == TaskPhase::Running, "complete on non-running task");
  WIRE_CHECK(rt.exec_time >= 0.0, "complete before exec_done");
  rt.transfer_out_time = now - rt.exec_start - rt.exec_time;
  if (rt.ckpt_pure_exec >= 0.0) {
    // Scheduled checkpointing stalls execution during writes: observations
    // (and the predictor's runtime harvest) must see the pure execution
    // time, not the stall-stretched wall interval.
    rt.exec_time = rt.ckpt_pure_exec;
  }
  rt.phase = TaskPhase::Completed;
  rt.completed_at = now;
  busy_slot_seconds_ += now - rt.occupancy_start;
  ++completed_;
  release_memory(rt, now);
  if (rt.true_peak_mem_mb >= 0.0) {
    mem_used_mb_seconds_ += rt.true_peak_mem_mb * (now - rt.occupancy_start);
  }

  free_slot_of(rt, task);
  // rt.instance is kept: the kickstart record names the hosting instance.
  if (store_ != nullptr) {
    store_->on_task_completed(task, rt.exec_time,
                              std::max(0.0, rt.transfer_in_time) +
                                  std::max(0.0, rt.transfer_out_time),
                              rt.true_peak_mem_mb);
  }

  std::uint32_t newly_ready = 0;
  for (TaskId succ : workflow_->successors(task)) {
    TaskRuntime& srt = mutable_runtime(succ);
    WIRE_CHECK(srt.remaining_preds > 0, "predecessor count underflow");
    if (--srt.remaining_preds == 0) {
      enqueue_ready(succ, now);
      ++newly_ready;
    }
  }
  return newly_ready;
}

void FrameworkMaster::salvage_on_kill(TaskRuntime& rt, SimTime now,
                                      bool allow_legacy_salvage) {
  // Execution progress of the dying attempt: the engine stages the true
  // value when checkpoint stalls make wall time an overstatement; a kill
  // during the output transfer finds the finished exec time; otherwise wall
  // time since exec_start is exact.
  double progress = 0.0;
  if (rt.ckpt_progress_exec >= 0.0) {
    progress = rt.ckpt_progress_exec;
  } else if (rt.exec_time >= 0.0) {
    progress = rt.exec_time;
  } else if (rt.exec_start >= 0.0) {
    progress = now - rt.exec_start;
  }
  const double salvaged_before = rt.salvaged_exec;
  if (scheduled_checkpoints_) {
    // Every kill kind recovers the attempt's committed checkpoint — that is
    // the point of writing one (an upgrade over the legacy model, where a
    // crashed process was assumed to die at an unknown point with nothing
    // durable on disk).
    rt.salvaged_exec += rt.ckpt_durable_exec;
  } else if (allow_legacy_salvage && checkpoint_fraction_ > 0.0 &&
             rt.exec_start >= 0.0) {
    rt.salvaged_exec = std::max(
        rt.salvaged_exec, checkpoint_fraction_ * (now - rt.exec_start));
  }
  lost_work_seconds_ +=
      std::max(0.0, progress - (rt.salvaged_exec - salvaged_before));
  rt.ckpt_durable_exec = 0.0;
  rt.ckpt_progress_exec = -1.0;
  rt.ckpt_pure_exec = -1.0;
}

std::vector<TaskId> FrameworkMaster::resubmit_tasks_on(InstanceId instance,
                                                       SimTime now) {
  std::vector<TaskId> killed = tasks_on(instance);
  if (instance < instances_.size()) {
    InstanceSlots& row = instances_[instance];
    std::fill(row.slots.begin(), row.slots.end(), dag::kInvalidTask);
    row.free = static_cast<std::uint32_t>(row.slots.size());
  }
  for (TaskId task : killed) {
    TaskRuntime& rt = mutable_runtime(task);
    WIRE_CHECK(rt.phase == TaskPhase::Running, "killed task was not running");
    wasted_slot_seconds_ += now - rt.occupancy_start;
    release_memory(rt, now);
    ++restarts_;
    salvage_on_kill(rt, now, /*allow_legacy_salvage=*/true);
    rt.exec_time = -1.0;
    enqueue_ready(task, now);
  }
  return killed;
}

std::uint32_t FrameworkMaster::on_task_failed(TaskId task, SimTime now) {
  TaskRuntime& rt = mutable_runtime(task);
  WIRE_REQUIRE(rt.phase == TaskPhase::Running, "fault on non-running task");
  free_slot_of(rt, task);

  const double elapsed = now - rt.occupancy_start;
  wasted_slot_seconds_ += elapsed;
  release_memory(rt, now);
  ++task_faults_;
  ++rt.failed_attempts;
  rt.last_failed_elapsed = elapsed;
  // Under the legacy fraction model a transient failure loses the attempt's
  // progress outright (the process died at an unknown point, nothing durable
  // exists); scheduled checkpointing recovers the committed write.
  salvage_on_kill(rt, now, /*allow_legacy_salvage=*/false);
  rt.phase = TaskPhase::Pending;
  rt.ready_at = -1.0;
  rt.occupancy_start = -1.0;
  rt.exec_start = -1.0;
  rt.transfer_in_time = -1.0;
  rt.exec_time = -1.0;
  rt.instance = kInvalidInstance;
  if (store_ != nullptr) {
    store_->on_task_failed(task, rt.attempts, rt.failed_attempts, elapsed);
  }
  return rt.failed_attempts;
}

std::uint32_t FrameworkMaster::on_task_oom(TaskId task, SimTime now) {
  TaskRuntime& rt = mutable_runtime(task);
  WIRE_REQUIRE(rt.phase == TaskPhase::Running, "OOM on non-running task");
  free_slot_of(rt, task);

  const double elapsed = now - rt.occupancy_start;
  wasted_slot_seconds_ += elapsed;
  release_memory(rt, now);
  ++oom_kills_;
  ++rt.oom_attempts;
  // Unlike a transient fault, failed_attempts/last_failed_elapsed stay
  // untouched: an OOM kill is a sizing error, and the exec-time failure
  // harvest must not see it as a runtime observation.
  salvage_on_kill(rt, now, /*allow_legacy_salvage=*/false);
  rt.phase = TaskPhase::Pending;
  rt.ready_at = -1.0;
  rt.occupancy_start = -1.0;
  rt.exec_start = -1.0;
  rt.transfer_in_time = -1.0;
  rt.exec_time = -1.0;
  rt.instance = kInvalidInstance;
  if (store_ != nullptr) {
    store_->on_task_oom(task, rt.attempts, rt.oom_attempts);
  }
  return rt.oom_attempts;
}

void FrameworkMaster::requeue_failed(TaskId task, SimTime now) {
  TaskRuntime& rt = mutable_runtime(task);
  WIRE_REQUIRE(rt.phase == TaskPhase::Pending &&
                   (rt.failed_attempts > 0 || rt.oom_attempts > 0) &&
                   !rt.quarantined,
               "requeue_failed on a task that is not awaiting retry");
  WIRE_CHECK(rt.remaining_preds == 0, "retrying task has open predecessors");
  enqueue_ready(task, now);
}

std::vector<TaskId> FrameworkMaster::quarantine(TaskId task) {
  std::vector<TaskId> poisoned;
  std::vector<TaskId> stack{task};
  while (!stack.empty()) {
    const TaskId t = stack.back();
    stack.pop_back();
    TaskRuntime& rt = mutable_runtime(t);
    if (rt.quarantined) continue;  // reachable along multiple paths
    WIRE_CHECK(rt.phase == TaskPhase::Pending,
               "quarantine of a task that is not blocked");
    rt.quarantined = true;
    ++quarantined_;
    poisoned.push_back(t);
    for (TaskId succ : workflow_->successors(t)) stack.push_back(succ);
  }
  return poisoned;
}

}  // namespace wire::sim
