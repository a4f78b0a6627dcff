#include "sim/monitor_store.h"

#include <algorithm>

#include "util/check.h"

namespace wire::sim {

using dag::TaskId;

MonitorStore::MonitorStore(const dag::Workflow& workflow)
    : workflow_(&workflow) {
  const std::size_t n = workflow.task_count();
  snap_.tasks.assign(n, TaskObservation{});
  for (const dag::TaskSpec& t : workflow.tasks()) {
    snap_.tasks[t.id].input_mb = t.input_mb;
  }
  // Bootstrap baseline: the framework master fires the workflow roots at
  // t = 0 in its constructor, before the store can be attached. Journaling
  // that state here (instead of a post-hoc O(tasks) sync) keeps the pending
  // delta empty — the bootstrap is what the first snapshot diffs against.
  for (TaskId root : workflow.roots()) {
    TaskObservation& obs = snap_.tasks[root];
    obs.phase = TaskPhase::Ready;
    obs.ready_since = 0.0;
  }
  snap_.incomplete_tasks = static_cast<std::uint32_t>(n);
  exec_start_.assign(n, -1.0);
  running_pos_.assign(n, 0);
  phase_stamp_.assign(n, 0);
}

void MonitorStore::journal_phase_change(TaskId task) {
  if (in_step_) {
    // Raw append; end_step (or a mid-step refresh) runs the stamp-dedup
    // coalesce once for the whole step.
    step_phase_.push_back(task);
    return;
  }
  if (phase_stamp_[task] != journal_epoch_) {
    phase_stamp_[task] = journal_epoch_;
    pending_.phase_changed.push_back(task);
  }
}

void MonitorStore::flush_step() {
  for (TaskId task : step_phase_) {
    if (phase_stamp_[task] != journal_epoch_) {
      phase_stamp_[task] = journal_epoch_;
      pending_.phase_changed.push_back(task);
    }
  }
  step_phase_.clear();
}

void MonitorStore::running_insert(TaskId task) {
  if (running_pos_[task] != 0) return;
  running_.push_back(task);
  running_pos_[task] = static_cast<std::uint32_t>(running_.size());
}

void MonitorStore::running_erase(TaskId task) {
  const std::uint32_t pos = running_pos_[task];
  if (pos == 0) return;
  const TaskId last = running_.back();
  running_[pos - 1] = last;
  running_pos_[last] = pos;
  running_.pop_back();
  running_pos_[task] = 0;
}

void MonitorStore::on_task_ready(TaskId task, SimTime now,
                                 std::uint32_t attempts) {
  TaskObservation& obs = snap_.tasks[task];
  const double input_mb = obs.input_mb;
  const std::uint32_t failed_attempts = obs.failed_attempts;
  const SimTime last_failed_elapsed = obs.last_failed_elapsed;
  const std::uint32_t oom_attempts = obs.oom_attempts;
  obs = TaskObservation{};
  obs.input_mb = input_mb;
  obs.failed_attempts = failed_attempts;
  obs.last_failed_elapsed = last_failed_elapsed;
  obs.oom_attempts = oom_attempts;
  obs.phase = TaskPhase::Ready;
  obs.ready_since = now;
  obs.attempts = attempts;
  exec_start_[task] = -1.0;
  running_erase(task);
  journal_phase_change(task);
}

void MonitorStore::on_task_dispatched(TaskId task, InstanceId instance,
                                      SimTime now, std::uint32_t attempts,
                                      double mem_reservation_mb) {
  TaskObservation& obs = snap_.tasks[task];
  obs.phase = TaskPhase::Running;
  obs.occupancy_start = now;
  obs.elapsed = 0.0;
  obs.elapsed_exec = 0.0;
  obs.transfer_in_time = -1.0;
  obs.instance = instance;
  obs.attempts = attempts;
  obs.mem_reservation_mb = mem_reservation_mb;
  exec_start_[task] = -1.0;
  running_insert(task);
  journal_phase_change(task);
}

void MonitorStore::on_transfer_in_done(TaskId task, double transfer_in_time,
                                       SimTime now) {
  snap_.tasks[task].transfer_in_time = transfer_in_time;
  exec_start_[task] = now;
  // Still Running: no phase change to journal.
}

void MonitorStore::on_checkpoint_committed(TaskId task,
                                           double durable_exec_seconds) {
  TaskObservation& obs = snap_.tasks[task];
  WIRE_CHECK(obs.phase == TaskPhase::Running,
             "checkpoint commit for a non-running task");
  obs.checkpointed_exec = durable_exec_seconds;
  // Still Running: no phase change to journal.
}

void MonitorStore::on_task_failed(TaskId task, std::uint32_t attempts,
                                  std::uint32_t failed_attempts,
                                  double elapsed) {
  TaskObservation& obs = snap_.tasks[task];
  WIRE_CHECK(obs.phase == TaskPhase::Running, "fault on non-running task");
  const double input_mb = obs.input_mb;
  const std::uint32_t oom_attempts = obs.oom_attempts;
  obs = TaskObservation{};
  obs.input_mb = input_mb;
  obs.attempts = attempts;
  obs.failed_attempts = failed_attempts;
  obs.last_failed_elapsed = elapsed;
  obs.oom_attempts = oom_attempts;
  obs.phase = TaskPhase::Pending;
  exec_start_[task] = -1.0;
  running_erase(task);
  journal_phase_change(task);
  pending_.failed.push_back(task);
}

void MonitorStore::on_task_oom(TaskId task, std::uint32_t attempts,
                               std::uint32_t oom_attempts) {
  TaskObservation& obs = snap_.tasks[task];
  WIRE_CHECK(obs.phase == TaskPhase::Running, "OOM on non-running task");
  const double input_mb = obs.input_mb;
  const std::uint32_t failed_attempts = obs.failed_attempts;
  const SimTime last_failed_elapsed = obs.last_failed_elapsed;
  obs = TaskObservation{};
  obs.input_mb = input_mb;
  obs.attempts = attempts;
  obs.failed_attempts = failed_attempts;
  obs.last_failed_elapsed = last_failed_elapsed;
  obs.oom_attempts = oom_attempts;
  obs.phase = TaskPhase::Pending;
  exec_start_[task] = -1.0;
  running_erase(task);
  journal_phase_change(task);
  pending_.failed.push_back(task);
}

void MonitorStore::on_task_completed(TaskId task, double exec_time,
                                     double transfer_time,
                                     double peak_mem_mb) {
  TaskObservation& obs = snap_.tasks[task];
  WIRE_CHECK(obs.phase != TaskPhase::Completed, "task completed twice");
  const double input_mb = obs.input_mb;
  const std::uint32_t attempts = obs.attempts;
  const std::uint32_t failed_attempts = obs.failed_attempts;
  const SimTime last_failed_elapsed = obs.last_failed_elapsed;
  const std::uint32_t oom_attempts = obs.oom_attempts;
  obs = TaskObservation{};
  obs.input_mb = input_mb;
  obs.attempts = attempts;
  obs.failed_attempts = failed_attempts;
  obs.last_failed_elapsed = last_failed_elapsed;
  obs.oom_attempts = oom_attempts;
  obs.phase = TaskPhase::Completed;
  obs.exec_time = exec_time;
  obs.transfer_time = transfer_time;
  obs.peak_mem_mb = peak_mem_mb;
  exec_start_[task] = -1.0;
  running_erase(task);
  WIRE_CHECK(snap_.incomplete_tasks > 0, "incomplete count underflow");
  --snap_.incomplete_tasks;
  journal_phase_change(task);
  pending_.completed.push_back(task);
}

void MonitorStore::on_instance_added(InstanceId instance) {
  pending_.instances_added.push_back(instance);
}

void MonitorStore::on_instance_removed(InstanceId instance) {
  pending_.instances_removed.push_back(instance);
}

void MonitorStore::refresh_fields(SimTime now, std::uint32_t pool_cap,
                                  const CloudPool& cloud,
                                  const FrameworkMaster& framework,
                                  const CloudConfig& config) {
  snap_.now = now;
  snap_.pool_cap = pool_cap;
  for (TaskId t : running_) {
    TaskObservation& obs = snap_.tasks[t];
    obs.elapsed = now - obs.occupancy_start;
    obs.elapsed_exec = exec_start_[t] >= 0.0 ? now - exec_start_[t] : 0.0;
  }
  framework.ready_queue_snapshot(snap_.ready_queue);
  // Rows are overwritten in place so each keeps its running_tasks capacity
  // from tick to tick.
  const std::vector<InstanceId>& live = cloud.live();
  snap_.instances.resize(live.size());
  for (std::size_t k = 0; k < live.size(); ++k) {
    const InstanceId id = live[k];
    const Instance& inst = cloud.instance(id);
    InstanceObservation& obs = snap_.instances[k];
    std::vector<TaskId> running = std::move(obs.running_tasks);
    running.clear();
    obs = InstanceObservation{};
    obs.id = id;
    obs.provisioning = inst.state == InstanceState::Provisioning;
    obs.ready_at = inst.ready_at;
    obs.draining = inst.drain_at >= 0.0;
    obs.revoking = cloud.revocation_announced(id, now);
    obs.revoke_at = obs.revoking ? inst.crash_at : -1.0;
    if (inst.state == InstanceState::Ready) {
      obs.time_to_next_charge = cloud.time_to_next_charge(id, now);
      framework.append_tasks_on(id, running);
      obs.free_slots = framework.free_slots(id);
    } else {
      obs.time_to_next_charge = config.charging_unit_seconds;
      obs.free_slots = config.slots_per_instance;
    }
    obs.running_tasks = std::move(running);
  }
}

const MonitorSnapshot& MonitorStore::refresh(SimTime now,
                                             std::uint32_t pool_cap,
                                             const CloudPool& cloud,
                                             const FrameworkMaster& framework,
                                             const CloudConfig& config) {
  // Control ticks fire mid-step: coalesce the step buffer before publishing
  // so this delta covers everything up to `now`. Later events of the same
  // step journal against the fresh epoch and land in the next delta.
  if (in_step_) flush_step();
  refresh_fields(now, pool_cap, cloud, framework, config);
  // Publish the journal: swap it into the snapshot (reusing the previous
  // delta's capacity as the next accumulation buffer) and canonicalize the
  // task lists to ascending TaskId — the exact order a full rescan visits
  // them, which keeps delta-driven consumers bit-identical to scan-driven
  // ones.
  std::swap(snap_.delta, pending_);
  pending_.exact = false;
  pending_.completed.clear();
  pending_.phase_changed.clear();
  pending_.instances_added.clear();
  pending_.instances_removed.clear();
  pending_.failed.clear();
  pending_.instances_changed.clear();
  snap_.delta.exact = true;
  std::sort(snap_.delta.completed.begin(), snap_.delta.completed.end());
  std::sort(snap_.delta.phase_changed.begin(), snap_.delta.phase_changed.end());
  // A task may fail more than once within one interval; the delta lists it
  // once (observations carry the count).
  std::sort(snap_.delta.failed.begin(), snap_.delta.failed.end());
  snap_.delta.failed.erase(
      std::unique(snap_.delta.failed.begin(), snap_.delta.failed.end()),
      snap_.delta.failed.end());

  // Lifecycle diff against the previous published snapshot's rows (the
  // rebuild above is already O(live); this adds one sorted merge over the
  // same rows). Peeks skip this entirely, so a dropout interval's changes
  // coalesce into the next exact delta. The rows come from cloud.live(), so
  // they are already in ascending id order.
  cur_lifecycle_.clear();
  for (const InstanceObservation& obs : snap_.instances) {
    cur_lifecycle_.push_back({obs.id, obs.provisioning, obs.draining,
                              obs.revoking, obs.ready_at, obs.revoke_at});
  }
  WIRE_CHECK(std::is_sorted(cur_lifecycle_.begin(), cur_lifecycle_.end(),
                            [](const InstanceLifecycle& a,
                               const InstanceLifecycle& b) {
                              return a.id < b.id;
                            }),
             "monitoring rows out of id order");
  snap_.delta.instances_changed.clear();
  {
    std::size_t i = 0, j = 0;
    while (i < prev_lifecycle_.size() || j < cur_lifecycle_.size()) {
      if (j == cur_lifecycle_.size() ||
          (i < prev_lifecycle_.size() &&
           prev_lifecycle_[i].id < cur_lifecycle_[j].id)) {
        snap_.delta.instances_changed.push_back(prev_lifecycle_[i++].id);
        continue;
      }
      if (i == prev_lifecycle_.size() ||
          cur_lifecycle_[j].id < prev_lifecycle_[i].id) {
        snap_.delta.instances_changed.push_back(cur_lifecycle_[j++].id);
        continue;
      }
      const InstanceLifecycle& p = prev_lifecycle_[i++];
      const InstanceLifecycle& c = cur_lifecycle_[j++];
      if (p.provisioning != c.provisioning || p.draining != c.draining ||
          p.revoking != c.revoking || p.ready_at != c.ready_at ||
          p.revoke_at != c.revoke_at) {
        snap_.delta.instances_changed.push_back(c.id);
      }
    }
  }
  std::swap(prev_lifecycle_, cur_lifecycle_);

  ++journal_epoch_;
  return snap_;
}

const MonitorSnapshot& MonitorStore::peek(SimTime now, std::uint32_t pool_cap,
                                          const CloudPool& cloud,
                                          const FrameworkMaster& framework,
                                          const CloudConfig& config) {
  refresh_fields(now, pool_cap, cloud, framework, config);
  snap_.delta.exact = false;
  snap_.delta.completed.clear();
  snap_.delta.phase_changed.clear();
  snap_.delta.instances_added.clear();
  snap_.delta.instances_removed.clear();
  snap_.delta.failed.clear();
  snap_.delta.instances_changed.clear();
  return snap_;
}

std::size_t MonitorStore::state_bytes() const {
  const auto vec = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
  std::size_t bytes = sizeof(*this);
  bytes += vec(snap_.tasks) + vec(snap_.ready_queue);
  bytes += vec(snap_.instances);
  for (const InstanceObservation& inst : snap_.instances) {
    bytes += vec(inst.running_tasks);
  }
  bytes += vec(exec_start_) + vec(running_) + vec(running_pos_) +
           vec(phase_stamp_) + vec(step_phase_);
  bytes += vec(pending_.completed) + vec(pending_.phase_changed) +
           vec(pending_.instances_added) + vec(pending_.instances_removed) +
           vec(pending_.failed) + vec(pending_.instances_changed);
  bytes += vec(snap_.delta.completed) + vec(snap_.delta.phase_changed) +
           vec(snap_.delta.instances_added) +
           vec(snap_.delta.instances_removed) + vec(snap_.delta.failed) +
           vec(snap_.delta.instances_changed);
  bytes += vec(prev_lifecycle_) + vec(cur_lifecycle_);
  return bytes;
}

}  // namespace wire::sim
