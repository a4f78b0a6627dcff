// The single-job simulation engine, exposed as a steppable object so an
// external multiplexer (the ensemble driver, src/ensemble/) can interleave
// many concurrent jobs over one shared site clock without the engine owning
// the outer event loop. `simulate()` (sim/driver.h) remains the one-call
// wrapper for dedicated-site runs: it constructs a JobEngine, steps it to
// completion, and returns the result.
//
// Multi-tenant contract: `set_instance_cap` imposes an external pool ceiling
// (a site arbiter's share). The engine clips every grow request so that the
// live instance count never exceeds the cap, and surfaces the cap to the
// scaling policy through MonitorSnapshot::pool_cap so cap-aware policies
// (WIRE's steering, the reactive baselines) can plan within it instead of
// issuing requests that would be clipped. The cap may change between events;
// an arbiter that never lowers a tenant's cap below its current live count
// preserves `live <= cap` at all times (see ensemble/arbiter.h).
//
// All engine times are job-local: t = 0 is the engine's bootstrap, not the
// site epoch. A multiplexer that admits the job at site time T compares
// `T + next_event_time()` across tenants and leaves translation to itself.
#pragma once

#include <cstdint>
#include <vector>

#include "dag/workflow.h"
#include "policies/checkpoint.h"
#include "sim/cloud.h"
#include "sim/config.h"
#include "sim/driver.h"
#include "sim/event_queue.h"
#include "sim/faults.h"
#include "sim/framework.h"
#include "sim/memory.h"
#include "sim/monitor_store.h"
#include "sim/scaling_policy.h"
#include "sim/shared_channel.h"
#include "sim/variability.h"

namespace wire::sim {

// kNoInstanceCap (the "no externally imposed pool ceiling" sentinel) lives in
// sim/monitor.h next to MonitorSnapshot::pool_cap, which carries it across
// the policy boundary.

class JobEngine {
 public:
  /// Binds to a workflow and policy (both kept by reference; must outlive the
  /// engine). No events exist until start().
  JobEngine(const dag::Workflow& workflow, ScalingPolicy& policy,
            const CloudConfig& config, const RunOptions& options);

  /// Bootstraps the run at local time 0: notifies the policy, boots the
  /// initial pool (clamped to the instance cap), and schedules the first
  /// control tick. Call once.
  void start();

  /// All tasks resolved — completed, or quarantined as poison under fault
  /// injection (trivially false before start()).
  bool done() const { return started_ && framework_.all_complete(); }

  /// Local time of the earliest pending event. Requires start() and !done().
  SimTime next_event_time() const;

  /// Local time of the earliest pending event that can change this engine's
  /// externally visible demand state (live_instances / requested_pool /
  /// done): ControlTick, InstanceDrain, InstanceCrash, and — only under
  /// fault injection, where a boot failure can terminate an instance —
  /// InstanceReady. +infinity when none is pending (a done engine). Local
  /// events strictly before this horizon neither read the instance cap nor
  /// move the demand signal, which is what lets a multiplexer advance
  /// engines past them ahead of the other tenants (see ensemble/driver.h).
  SimTime next_demand_event_time() const { return queue_.next_tracked_time(); }

  /// Local time of the event that completed the run; negative until done().
  SimTime end_time() const { return end_time_; }

  /// Processes exactly one event. Requires start() and !done(). Throws
  /// std::runtime_error past RunOptions::max_sim_seconds (a stuck policy).
  void step();

  /// Externally imposed pool ceiling (kNoInstanceCap = none beyond the site
  /// capacity in CloudConfig::max_instances; 0 = all growth blocked). Takes
  /// effect from the next grow request; already-live instances are never
  /// killed by a cap change.
  void set_instance_cap(std::uint32_t cap) { external_cap_ = cap; }
  std::uint32_t instance_cap() const { return external_cap_; }

  /// Live (provisioning + ready) instances right now.
  std::uint32_t live_instances() const { return cloud_.live_count(); }

  /// Pool size the policy asked for at its last control tick, before any
  /// cap clamping — the demand signal for demand-weighted arbitration.
  /// Defaults to the bootstrap pool size until the first tick.
  std::uint32_t requested_pool() const { return requested_pool_; }

  /// Projected memory demand (MB) the policy reported at its last control
  /// tick (PoolCommand::desired_mem_mb); 0.0 means the policy does not report
  /// one. Advisory second axis of the demand signal for memory-aware
  /// arbitration.
  double requested_mem_mb() const { return requested_mem_mb_; }

  /// Total checkpoint bytes (MB) the running set would write, latched at the
  /// last control tick like requested_pool() — the demand signal a site
  /// arbiter uses to stagger tenants on the shared checkpoint channel.
  /// Always 0.0 with scheduled checkpointing disabled.
  double checkpoint_demand_mb() const { return ckpt_demand_mb_; }

  /// Remaining budget (charging units) the policy reported at its last
  /// control tick (PoolCommand::remaining_budget_units); -1.0 means the
  /// policy does not track a budget. Advisory third axis of the demand
  /// signal for budget-weighted arbitration.
  double remaining_budget_units() const { return remaining_budget_units_; }

  /// Installs the effective checkpoint-channel bandwidth this tenant may use
  /// (a site arbiter's share of CheckpointConfig::channel_bandwidth_mb_per_s).
  /// `now` is engine-local time; in-flight writes are advanced at the old
  /// rate before the switch. A `now` behind the engine's own clock (a
  /// multiplexer that let the engine run ahead of the site event) is taken as
  /// that clock: the change applies from where the engine is. No-op if the
  /// value is unchanged, so callers may re-install every rebalance without
  /// perturbing the event stream.
  void set_checkpoint_channel(double bandwidth_mb_per_s, SimTime now);

  /// Installs the cooperative-staggering window: checkpoint writes may only
  /// *start* in [offset + k*period, offset + k*period + length) (engine-local
  /// clock; the installer translates site-anchored offsets). period <= 0
  /// means always open. Windows are soft — a write started inside runs to
  /// completion — and advisory for already-scheduled checkpoint fires.
  void set_checkpoint_window(SimTime offset, double length, double period);

  /// The engine's live hazard estimate (crashes per ready instance-hour),
  /// fed by observed crashes and tick-sampled exposure. Zero until the prior
  /// or an observed crash contributes mass.
  double checkpoint_hazard_per_hour() const {
    return ckpt_sched_.hazard().hazard_per_hour();
  }

  std::uint32_t incomplete_tasks() const {
    return static_cast<std::uint32_t>(workflow_.task_count() -
                                      framework_.completed_count());
  }

  /// Finalizes the run: terminates any still-allocated instances (their
  /// started charging units stay billed) and assembles the result. Requires
  /// done(); call at most once.
  RunResult result();

  /// The store-maintained snapshot refreshed to `now` without consuming the
  /// delta journal (see MonitorStore::peek). Safe to call between events;
  /// does not perturb the run.
  const MonitorSnapshot& peek_monitor(SimTime now);

  /// Resident bytes of incremental monitoring state (§IV-F accounting).
  std::size_t monitor_state_bytes() const { return store_.state_bytes(); }

  /// Ground-truth pool state — billing/lifecycle invariant checks in tests.
  const CloudPool& cloud() const { return cloud_; }
  /// Ground-truth task state. tests/oracle/snapshot_oracle.h rebuilds the
  /// monitoring snapshot from it and cloud() to check the MonitorStore.
  const FrameworkMaster& framework() const { return framework_; }

 private:
  void dispatch_all(SimTime now);
  void handle_instance_ready(const Event& e);
  void handle_transfer_in_done(const Event& e);
  void handle_exec_done(const Event& e);
  void handle_transfer_out_done(const Event& e);
  void handle_control_tick(const Event& e);
  void handle_instance_drain(const Event& e);
  void handle_transfer_guard(const Event& e);
  void handle_transfer_start(const Event& e);
  void handle_instance_crash(const Event& e);
  void handle_task_faulted(const Event& e);
  void handle_task_retry(const Event& e);
  void handle_task_oom(const Event& e);
  void handle_task_checkpoint(const Event& e);
  void handle_checkpoint_guard(const Event& e);

  /// Draws and schedules the crash/revocation of an instance that just
  /// became Ready (no-op with fault injection disabled).
  void maybe_arm_crash(InstanceId id, SimTime now);

  /// The one kill sequence of a Ready instance (crash, drain, immediate
  /// release): stages each running attempt's checkpointed progress,
  /// resubmits the tasks, terminates the instance (billing stops) and
  /// journals the removal. The caller follows with settle_kills(), once per
  /// batch of kills at the same instant.
  void kill_instance(InstanceId id, SimTime now);
  /// Drops the killed attempts' flows from both channels and re-dispatches
  /// onto the freed capacity.
  void settle_kills(SimTime now);
  /// Tail of a task fault or OOM kill, `failures` being the count of that
  /// kind against its `limit`: quarantine the task (and its descendants) at
  /// the limit, else schedule the retry after the backoff ladder's delay;
  /// then re-dispatch onto the freed slot.
  void retry_or_quarantine(dag::TaskId task, std::uint32_t failures,
                           std::uint32_t limit, SimTime now);

  // --- Transfer model -------------------------------------------------
  // With aggregate_bandwidth == 0 every transfer runs at link speed for a
  // duration fixed when it starts. Otherwise transfers share the aggregate
  // fabric (fabric_) processor-style at min(link, aggregate / n).
  bool shared_bandwidth() const {
    return config_.variability.aggregate_bandwidth_mb_per_s > 0.0;
  }
  void begin_transfer(dag::TaskId task, bool inbound, double payload_mb,
                      SimTime now);
  void start_payload_transfer(dag::TaskId task, bool inbound,
                              double payload_mb, SimTime now);
  void finish_transfer_in(dag::TaskId task, SimTime now);
  void finish_transfer_out(dag::TaskId task, SimTime now);
  /// SharedChannel liveness callback: the flow's attempt is still running.
  auto alive_flow() const {
    return [this](const SharedChannel::Flow& f) {
      return attempt_is_current(f.task, f.attempt);
    };
  }

  // --- Scheduled checkpointing (CheckpointConfig::enabled()) ------------
  // Execution runs in segments punctuated by checkpoint writes on a shared
  // channel (ckpt_channel_, whose capacity is the tenant's bandwidth share).
  // Exactly one exec event (TaskCheckpoint xor ExecDone) is pending per
  // running attempt; while a write is in flight the task stalls (occupying
  // its slot) and resumes when the write commits. A killed attempt salvages
  // only committed checkpoints; its in-flight write is purged and counted
  // lost.
  bool checkpoint_active() const {
    return config_.checkpoint.enabled() && ckpt_channel_.capacity() > 0.0;
  }
  /// Checkpoint image size: the attempt's memory reservation when the memory
  /// dimension is on, CheckpointConfig::default_size_mb otherwise.
  double ckpt_size_mb(dag::TaskId task) const;
  /// Earliest time >= t at which a checkpoint write may start under the
  /// installed staggering window.
  SimTime ckpt_window_defer(SimTime t) const;
  /// Schedules the attempt's next exec event from a segment starting at
  /// `now`: a TaskCheckpoint if one more interval fits before the remaining
  /// execution ends, the final ExecDone otherwise.
  void schedule_exec_segment(dag::TaskId task, SimTime now);
  /// Books a write whose attempt died as lost I/O.
  void ckpt_write_lost(const SharedChannel::Flow& w, SimTime now);
  /// Drops writes whose attempt died (counting them lost).
  void purge_stale_ckpt_writes(SimTime now);
  /// Stages the killed attempt's true executed seconds (committed + live
  /// segment) with the framework so salvage charges exact lost work.
  void stage_ckpt_kill(dag::TaskId task, SimTime now);
  /// Feeds tick-sampled ready-instance exposure to the hazard estimator.
  void ckpt_observe_exposure(SimTime now);

  void apply_command(const PoolCommand& cmd, SimTime now);

  /// The binding instance ceiling: min of the site capacity
  /// (CloudConfig::max_instances, where 0 means unlimited) and the external
  /// cap. kNoInstanceCap when neither binds; 0 is a genuine all-growth-blocked
  /// ceiling. Surfaced verbatim as MonitorSnapshot::pool_cap.
  std::uint32_t effective_cap() const;

  /// True if the event still refers to the task's current attempt.
  bool attempt_is_current(dag::TaskId task, std::uint32_t attempt) const {
    return framework_.runtime(task).attempts == attempt &&
           framework_.runtime(task).phase == TaskPhase::Running;
  }

  const dag::Workflow& workflow_;
  ScalingPolicy& policy_;
  CloudConfig config_;
  RunOptions options_;
  CloudPool cloud_;
  FrameworkMaster framework_;
  MonitorStore store_;
  VariabilityModel variability_;
  /// Fault sampler + journal on its own RNG stream; never drawn from when
  /// CloudConfig::faults is all-zero (fault-free runs stay byte-identical).
  FaultModel faults_;
  /// Engine-side reservation sizing from observed true peaks (the framework's
  /// own memory request policy). Inert when MemoryConfig is off.
  TaskMemorySizer sizer_;
  EventQueue queue_;
  SharedChannel fabric_;
  /// Flows a guard event finished, refilled by each settle(). Shared by both
  /// channels' guard handlers, which never run inside one another.
  std::vector<SharedChannel::Flow> settled_;
  /// Usable instances for one memory-aware dispatch_all() call.
  std::vector<InstanceId> usable_;
  /// Per-task segmented-execution state of the *current* attempt (valid only
  /// while `attempt` matches TaskRuntime::attempts). exec_total is the
  /// attempt's post-salvage execution demand; exec_done the seconds already
  /// executed; segment_start the start of the live segment (< 0 while
  /// stalled on a write or not executing). Sized task_count only when
  /// scheduled checkpointing is enabled.
  struct TaskCkptState {
    double exec_total = 0.0;
    double exec_done = 0.0;
    SimTime segment_start = -1.0;
    std::uint32_t attempt = 0;
    /// Event ending the attempt's execution: ExecDone, or the injected
    /// TaskFaulted/TaskOom of a doomed attempt.
    EventKind terminal = EventKind::ExecDone;
  };
  std::vector<TaskCkptState> ckpt_states_;
  SharedChannel ckpt_channel_;
  /// The cooperative-staggering window.
  SimTime ckpt_window_offset_ = 0.0;
  double ckpt_window_length_ = 0.0;
  double ckpt_window_period_ = 0.0;
  policies::CheckpointScheduler ckpt_sched_;
  SimTime ckpt_exposure_mark_ = 0.0;
  double ckpt_demand_mb_ = 0.0;
  std::uint32_t ckpt_completed_ = 0;
  std::uint32_t ckpt_lost_ = 0;
  double ckpt_io_slot_seconds_ = 0.0;
  SimTime end_time_ = -1.0;
  std::uint32_t control_ticks_ = 0;
  std::vector<PoolSample> timeline_;
  std::uint32_t external_cap_ = kNoInstanceCap;
  std::uint32_t requested_pool_ = 0;
  double requested_mem_mb_ = 0.0;
  double remaining_budget_units_ = -1.0;
  bool started_ = false;
  bool finalized_ = false;
};

}  // namespace wire::sim
