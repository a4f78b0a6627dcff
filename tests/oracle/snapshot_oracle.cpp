// From-scratch snapshot reconstruction, exactly as the engine built every
// control tick's snapshot before the incremental MonitorStore. Kept
// test-only as the oracle the store is checked against; never linked into
// src/.
#include "oracle/snapshot_oracle.h"

#include <algorithm>
#include <utility>

namespace wire::sim::oracle {

void fill_observations(const FrameworkMaster& framework, SimTime now,
                       std::vector<TaskObservation>& out) {
  const dag::Workflow& workflow = framework.workflow();
  out.assign(workflow.task_count(), TaskObservation{});
  for (std::size_t i = 0; i < out.size(); ++i) {
    const dag::TaskId task = static_cast<dag::TaskId>(i);
    const TaskRuntime& rt = framework.runtime(task);
    TaskObservation& obs = out[i];
    obs.phase = rt.phase;
    obs.input_mb = workflow.task(task).input_mb;
    obs.attempts = rt.attempts;
    obs.failed_attempts = rt.failed_attempts;
    obs.last_failed_elapsed = rt.last_failed_elapsed;
    obs.oom_attempts = rt.oom_attempts;
    switch (rt.phase) {
      case TaskPhase::Pending:
        break;
      case TaskPhase::Ready:
        obs.ready_since = rt.ready_at;
        break;
      case TaskPhase::Running:
        obs.ready_since = rt.ready_at;
        obs.occupancy_start = rt.occupancy_start;
        obs.elapsed = now - rt.occupancy_start;
        obs.elapsed_exec = rt.exec_start >= 0.0 ? now - rt.exec_start : 0.0;
        obs.transfer_in_time = rt.transfer_in_time;
        obs.instance = rt.instance;
        obs.mem_reservation_mb = rt.mem_reservation_mb;
        obs.checkpointed_exec = rt.ckpt_durable_exec;
        break;
      case TaskPhase::Completed:
        obs.exec_time = rt.exec_time;
        obs.transfer_time = std::max(0.0, rt.transfer_in_time) +
                            std::max(0.0, rt.transfer_out_time);
        obs.peak_mem_mb = rt.true_peak_mem_mb;
        break;
    }
  }
}

MonitorSnapshot rebuild_snapshot(const JobEngine& engine,
                                 const CloudConfig& config, SimTime now) {
  const FrameworkMaster& framework = engine.framework();
  const CloudPool& cloud = engine.cloud();
  MonitorSnapshot snap;
  snap.now = now;
  const std::uint32_t site =
      config.max_instances == 0 ? kNoInstanceCap : config.max_instances;
  snap.pool_cap = std::min(site, engine.instance_cap());
  fill_observations(framework, now, snap.tasks);
  framework.ready_queue_snapshot(snap.ready_queue);
  snap.incomplete_tasks = engine.incomplete_tasks();
  for (InstanceId id : cloud.live()) {
    const Instance& inst = cloud.instance(id);
    InstanceObservation obs;
    obs.id = id;
    obs.provisioning = inst.state == InstanceState::Provisioning;
    obs.ready_at = inst.ready_at;
    obs.draining = inst.drain_at >= 0.0;
    obs.revoking = cloud.revocation_announced(id, now);
    obs.revoke_at = obs.revoking ? inst.crash_at : -1.0;
    if (inst.state == InstanceState::Ready) {
      obs.time_to_next_charge = cloud.time_to_next_charge(id, now);
      obs.running_tasks = framework.tasks_on(id);
      obs.free_slots = framework.free_slots(id);
    } else {
      obs.time_to_next_charge = config.charging_unit_seconds;
      obs.free_slots = config.slots_per_instance;
    }
    snap.instances.push_back(std::move(obs));
  }
  return snap;
}

}  // namespace wire::sim::oracle
