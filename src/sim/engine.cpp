#include "sim/engine.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/check.h"

namespace wire::sim {

using dag::TaskId;

JobEngine::JobEngine(const dag::Workflow& workflow, ScalingPolicy& policy,
                     const CloudConfig& config, const RunOptions& options)
    : workflow_(workflow),
      policy_(policy),
      // Validated before any member that sizes itself from it is built.
      config_((config.validate(), config)),
      options_(options),
      cloud_(config),
      framework_(workflow, config.first_fire_priority,
                 config.checkpoint_fraction, config.checkpoint.enabled()),
      store_(workflow),
      variability_(config.variability, options.seed),
      faults_(config.faults, options.seed, config.memory),
      sizer_(config.memory, config.slots_per_instance,
             workflow.stage_count()),
      fabric_(EventKind::TransferGuard,
              config.variability.aggregate_bandwidth_mb_per_s,
              config.variability.bandwidth_mb_per_s),
      // The checkpoint channel starts at the configured full bandwidth; an
      // arbiter installs the tenant's share through set_checkpoint_channel.
      ckpt_channel_(EventKind::CheckpointGuard,
                    config.checkpoint.enabled()
                        ? config.checkpoint.channel_bandwidth_mb_per_s
                        : 0.0),
      ckpt_sched_(config.checkpoint) {
  WIRE_REQUIRE(std::isfinite(options.max_sim_seconds) &&
                   options.max_sim_seconds > 0.0,
               "max_sim_seconds must be finite and positive");
  // The store's constructor journals the same t = 0 bootstrap the master's
  // constructor performs (roots fired as Ready); lifecycle hooks keep it
  // current from here on.
  framework_.set_monitor_store(&store_);
  // Demand-state events (next_demand_event_time): the kinds whose handlers
  // can change live_instances / requested_pool / done or read the external
  // cap. InstanceReady is demand-relevant only under fault injection, where a
  // boot failure terminates the instance on arrival.
  std::uint32_t tracked =
      (1u << static_cast<std::uint32_t>(EventKind::ControlTick)) |
      (1u << static_cast<std::uint32_t>(EventKind::InstanceDrain)) |
      (1u << static_cast<std::uint32_t>(EventKind::InstanceCrash));
  if (faults_.enabled()) {
    tracked |= 1u << static_cast<std::uint32_t>(EventKind::InstanceReady);
  }
  queue_.set_tracked_kinds(tracked);
  // Checkpoint events are deliberately NOT tracked: commits and fires never
  // touch live_instances / requested_pool / done, so a multiplexer may
  // advance them ahead of the other tenants like any other local event.
  if (config_.checkpoint.enabled()) ckpt_states_.resize(workflow.task_count());
}

std::uint32_t JobEngine::effective_cap() const {
  const std::uint32_t site =
      config_.max_instances == 0 ? kNoInstanceCap : config_.max_instances;
  return std::min(site, external_cap_);
}

void JobEngine::start() {
  WIRE_REQUIRE(!started_, "engine already started");
  started_ = true;
  policy_.on_run_start(workflow_, config_);
  const std::uint32_t initial =
      std::min(options_.initial_instances, effective_cap());
  for (std::uint32_t i = 0; i < initial; ++i) {
    const InstanceId id =
        cloud_.request_ready(0.0, variability_.sample_instance_factor());
    framework_.register_instance(id, config_.slots_per_instance);
    store_.on_instance_added(id);
    // The bootstrap pool is already booted, so it skips the provisioning
    // faults, but it is just as mortal as any other instance.
    maybe_arm_crash(id, 0.0);
  }
  requested_pool_ = initial;
  store_.begin_step();
  dispatch_all(0.0);
  store_.end_step();
  queue_.schedule(0.0, EventKind::ControlTick, 0);
}

SimTime JobEngine::next_event_time() const {
  WIRE_REQUIRE(started_, "engine not started");
  WIRE_CHECK(!queue_.empty(),
             "simulation deadlock: tasks pending but no events scheduled");
  return queue_.next_time();
}

void JobEngine::step() {
  WIRE_REQUIRE(started_ && !done(), "step on an idle engine");
  WIRE_CHECK(!queue_.empty(),
             "simulation deadlock: tasks pending but no events scheduled");
  const Event e = queue_.pop();
  if (e.time > options_.max_sim_seconds) {
    throw std::runtime_error(
        "simulation exceeded max_sim_seconds — policy appears stuck on '" +
        workflow_.name() + "'");
  }
  // One journal coalesce per engine step: a dispatch storm (an instance boot
  // binding dozens of tasks) appends raw ids and dedups once at end_step
  // instead of stamp-probing per event.
  store_.begin_step();
  switch (e.kind) {
    case EventKind::InstanceReady: handle_instance_ready(e); break;
    case EventKind::TransferInDone: handle_transfer_in_done(e); break;
    case EventKind::ExecDone: handle_exec_done(e); break;
    case EventKind::TransferOutDone: handle_transfer_out_done(e); break;
    case EventKind::ControlTick: handle_control_tick(e); break;
    case EventKind::InstanceDrain: handle_instance_drain(e); break;
    case EventKind::TransferGuard: handle_transfer_guard(e); break;
    case EventKind::TransferStart: handle_transfer_start(e); break;
    case EventKind::InstanceCrash: handle_instance_crash(e); break;
    case EventKind::TaskFaulted: handle_task_faulted(e); break;
    case EventKind::TaskRetry: handle_task_retry(e); break;
    case EventKind::TaskOom: handle_task_oom(e); break;
    case EventKind::TaskCheckpoint: handle_task_checkpoint(e); break;
    case EventKind::CheckpointGuard: handle_checkpoint_guard(e); break;
  }
  store_.end_step();
}

void JobEngine::dispatch_all(SimTime now) {
  // Binding a task never changes the pool, so `live` stays valid throughout.
  const std::vector<InstanceId>& live = cloud_.live();
  if (!config_.memory.enabled()) {
    // Each task goes to the lowest-id usable instance with a free slot. One
    // forward pass finds them all: usability depends only on `now`, and a
    // binding only consumes slots, so that instance never moves back.
    std::size_t next = 0;
    while (framework_.has_ready()) {
      while (next < live.size() && (framework_.free_slots(live[next]) == 0 ||
                                    !cloud_.is_usable(live[next], now))) {
        ++next;
      }
      if (next == live.size()) return;
      const InstanceId target = live[next];
      const TaskId task = framework_.pop_ready();
      const std::uint32_t slot = framework_.take_free_slot(target);
      framework_.on_dispatch(task, target, slot, now);
      begin_transfer(task, /*inbound=*/true, workflow_.task(task).input_mb,
                     now);
    }
    return;
  }
  // Memory-aware admission: the head ready task needs a free slot AND enough
  // free memory for its sized reservation. FIFO order is preserved strictly —
  // a head task that fits nowhere blocks the queue (no backfilling), which is
  // exactly the projection the lookahead replays. Each head task scans the
  // usable instances first-fit; the list of them is built once per call.
  usable_.clear();
  for (InstanceId id : live) {
    if (cloud_.is_usable(id, now)) usable_.push_back(id);
  }
  while (framework_.has_ready()) {
    const TaskId task = *framework_.peek_ready();
    const dag::TaskSpec& spec = workflow_.task(task);
    const double reservation = sizer_.reservation_mb(
        spec.stage, spec.ref_peak_mem_mb, framework_.runtime(task).oom_attempts);
    InstanceId target = kInvalidInstance;
    for (InstanceId id : usable_) {
      if (framework_.free_slots(id) > 0 &&
          framework_.mem_used(id) + reservation <=
              config_.memory.instance_mem_mb + 1e-9) {
        target = id;
        break;
      }
    }
    if (target == kInvalidInstance) return;
    framework_.pop_ready();
    const std::uint32_t slot = framework_.take_free_slot(target);
    framework_.on_dispatch(task, target, slot, now, reservation);
    begin_transfer(task, /*inbound=*/true, spec.input_mb, now);
  }
}

void JobEngine::begin_transfer(TaskId task, bool inbound, double payload_mb,
                               SimTime now) {
  // The per-dispatch scheduling overhead is fixed wall time (the master's
  // negotiation cycle), spent before the input transfer starts; it does not
  // consume fabric bandwidth.
  const double overhead =
      inbound ? config_.dispatch_overhead_seconds : 0.0;
  if (overhead > 0.0) {
    queue_.schedule(now + overhead, EventKind::TransferStart, task,
                    framework_.runtime(task).attempts);
    return;
  }
  start_payload_transfer(task, inbound, payload_mb, now);
}

void JobEngine::handle_transfer_start(const Event& e) {
  const TaskId task = e.payload;
  if (!attempt_is_current(task, e.aux)) return;
  start_payload_transfer(task, /*inbound=*/true,
                         workflow_.task(task).input_mb, e.time);
}

void JobEngine::start_payload_transfer(TaskId task, bool inbound,
                                       double payload_mb, SimTime now) {
  const EventKind done_kind =
      inbound ? EventKind::TransferInDone : EventKind::TransferOutDone;
  const std::uint32_t attempt = framework_.runtime(task).attempts;
  if (!shared_bandwidth() || payload_mb <= 0.0) {
    const double duration = variability_.sample_transfer_seconds(payload_mb);
    queue_.schedule(now + duration, done_kind, task, attempt);
    return;
  }
  SharedChannel::Flow t;
  t.task = task;
  t.attempt = attempt;
  t.inbound = inbound;
  // The setup latency is converted to its link-speed payload equivalent so
  // the whole transfer lives in one bandwidth-sharing regime.
  t.remaining_mb = payload_mb * variability_.sample_transfer_noise() +
                   config_.variability.transfer_latency_seconds *
                       config_.variability.bandwidth_mb_per_s;
  t.started = now;
  fabric_.add(t, now, queue_);
}

void JobEngine::finish_transfer_in(TaskId task, SimTime now) {
  framework_.on_transfer_in_done(task, now);
  const double factor =
      cloud_.instance(framework_.runtime(task).instance).speed_factor;
  double exec = variability_.sample_exec_seconds(
      workflow_.task(task).ref_exec_seconds, factor);
  // Checkpointed progress from killed attempts shortens the re-execution.
  exec = std::max(0.0, exec - framework_.runtime(task).salvaged_exec);
  // The attempt's terminal event and the executed seconds until it fires:
  // completion after the full demand, or an injected death partway through.
  EventKind terminal = EventKind::ExecDone;
  double exec_horizon = exec;
  if (faults_.enabled()) {
    const ExecFaultPlan plan = faults_.plan_exec();
    if (plan.fails && exec > 0.0) {
      // The attempt dies partway through execution instead of finishing.
      terminal = EventKind::TaskFaulted;
      exec_horizon = plan.fraction * exec;
    }
  }
  if (terminal == EventKind::ExecDone && config_.memory.enabled()) {
    // Ground truth is drawn lazily, once per task, at first execution start
    // — retries re-run against the SAME peak, so upsizing converges instead
    // of chasing a moving target. (The exec-fault draw above stays first: a
    // transient death preempts the OOM entirely, keeping the fault stream's
    // draw order byte-identical to memory-off runs.)
    if (framework_.runtime(task).true_peak_mem_mb < 0.0) {
      framework_.set_true_peak_mem(
          task, faults_.sample_peak_mem(workflow_.task(task).ref_peak_mem_mb));
    }
    const TaskRuntime& rt = framework_.runtime(task);
    if (rt.mem_reservation_mb >= 0.0 &&
        rt.true_peak_mem_mb > rt.mem_reservation_mb && exec > 0.0) {
      // Footprint ramps linearly over the attempt, so it hits the
      // reservation ceiling at the reservation/peak fraction of exec.
      const double fraction = rt.mem_reservation_mb / rt.true_peak_mem_mb;
      terminal = EventKind::TaskOom;
      exec_horizon = fraction * exec;
    }
  }
  if (config_.checkpoint.enabled()) {
    // Segmented execution: the attempt runs toward its terminal event in
    // segments punctuated by checkpoint writes. A doomed attempt (injected
    // fault/OOM) checkpoints on the same cadence — the system does not know
    // it is doomed — so its committed progress is salvaged at the kill.
    TaskCkptState& st = ckpt_states_[task];
    st.exec_total = exec_horizon;
    st.exec_done = 0.0;
    st.terminal = terminal;
    schedule_exec_segment(task, now);
    return;
  }
  queue_.schedule(now + exec_horizon, terminal, task,
                  framework_.runtime(task).attempts);
}

void JobEngine::finish_transfer_out(TaskId task, SimTime now) {
  if (config_.memory.enabled() &&
      framework_.runtime(task).true_peak_mem_mb >= 0.0) {
    // Completion reveals the true peak (the kickstart record); the sizer's
    // per-stage history drives every later reservation.
    sizer_.observe_peak(workflow_.task(task).stage,
                        framework_.runtime(task).true_peak_mem_mb);
  }
  framework_.on_complete(task, now);
  if (framework_.all_complete()) {
    end_time_ = now;
    return;
  }
  dispatch_all(now);
}

void JobEngine::handle_transfer_guard(const Event& e) {
  if (!fabric_.guard_current(e)) return;
  // Transfers of resubmitted attempts are dropped silently.
  fabric_.settle(e.time, queue_, alive_flow(),
                 [](const SharedChannel::Flow&) {}, settled_);
  for (const SharedChannel::Flow& t : settled_) {
    if (t.inbound) {
      finish_transfer_in(t.task, e.time);
    } else {
      finish_transfer_out(t.task, e.time);
    }
    if (framework_.all_complete()) return;
  }
}

double JobEngine::ckpt_size_mb(TaskId task) const {
  const double reservation = framework_.runtime(task).mem_reservation_mb;
  return reservation >= 0.0 ? reservation : config_.checkpoint.default_size_mb;
}

SimTime JobEngine::ckpt_window_defer(SimTime t) const {
  if (ckpt_window_period_ <= 0.0 ||
      ckpt_window_length_ >= ckpt_window_period_) {
    return t;  // no staggering installed, or the window covers the period
  }
  double phase = std::fmod(t - ckpt_window_offset_, ckpt_window_period_);
  if (phase < 0.0) phase += ckpt_window_period_;
  if (phase < ckpt_window_length_) return t;
  return t + (ckpt_window_period_ - phase);
}

void JobEngine::schedule_exec_segment(TaskId task, SimTime now) {
  TaskCkptState& st = ckpt_states_[task];
  const std::uint32_t attempt = framework_.runtime(task).attempts;
  st.attempt = attempt;
  st.segment_start = now;
  const double remaining = st.exec_total - st.exec_done;
  if (checkpoint_active()) {
    // Young/Daly delta: this task's expected write stall at the tenant's
    // current channel share. Co-located running tasks checkpoint on the same
    // cadence and share the channel processor-style, so a write that costs
    // size/bandwidth alone stalls ~running times longer in a synchronized
    // round — without the contention term the interval is tuned for a write
    // cost the task never actually sees and Young/Daly over-checkpoints.
    // Execution continues while a fire waits for an open staggering window,
    // so the deferral extends the segment, not a stall.
    const double contention = static_cast<double>(
        std::max<std::uint32_t>(1u, store_.running_count()));
    const double interval = ckpt_sched_.interval_seconds(
        contention * ckpt_size_mb(task) / ckpt_channel_.capacity());
    if (interval < remaining) {
      const SimTime fire = ckpt_window_defer(now + interval);
      if (fire - now < remaining) {
        queue_.schedule(fire, EventKind::TaskCheckpoint, task, attempt);
        return;
      }
    }
  }
  queue_.schedule(now + remaining, st.terminal, task, attempt);
}

void JobEngine::handle_task_checkpoint(const Event& e) {
  const TaskId task = e.payload;
  if (!attempt_is_current(task, e.aux)) return;
  TaskCkptState& st = ckpt_states_[task];
  WIRE_CHECK(st.attempt == e.aux && st.segment_start >= 0.0,
             "checkpoint fired on a stalled attempt");
  // Close the segment and stall the task for the duration of the write; the
  // slot (and its memory reservation) stays occupied the whole time.
  st.exec_done += e.time - st.segment_start;
  st.segment_start = -1.0;
  SharedChannel::Flow w;
  w.task = task;
  w.attempt = e.aux;
  w.remaining_mb = ckpt_size_mb(task);
  w.started = e.time;
  ckpt_channel_.add(w, e.time, queue_);
}

void JobEngine::handle_checkpoint_guard(const Event& e) {
  if (!ckpt_channel_.guard_current(e)) return;
  // A write whose attempt died since the last purge point is garbage.
  ckpt_channel_.settle(
      e.time, queue_, alive_flow(),
      [&](const SharedChannel::Flow& w) { ckpt_write_lost(w, e.time); },
      settled_);
  for (const SharedChannel::Flow& w : settled_) {
    ++ckpt_completed_;
    ckpt_io_slot_seconds_ += e.time - w.started;
    // Everything executed before the write started is now durable; a later
    // kill salvages exactly this much.
    framework_.on_checkpoint_committed(w.task, ckpt_states_[w.task].exec_done);
    schedule_exec_segment(w.task, e.time);
  }
}

void JobEngine::ckpt_write_lost(const SharedChannel::Flow& w, SimTime now) {
  ++ckpt_lost_;
  ckpt_io_slot_seconds_ += now - w.started;
}

void JobEngine::purge_stale_ckpt_writes(SimTime now) {
  ckpt_channel_.purge(
      now, queue_, alive_flow(),
      [&](const SharedChannel::Flow& w) { ckpt_write_lost(w, now); });
}

void JobEngine::stage_ckpt_kill(TaskId task, SimTime now) {
  if (!config_.checkpoint.enabled()) return;
  const TaskRuntime& rt = framework_.runtime(task);
  const TaskCkptState& st = ckpt_states_[task];
  if (rt.exec_start < 0.0 || st.attempt != rt.attempts) return;
  double progress = st.exec_done;
  if (st.segment_start >= 0.0) progress += now - st.segment_start;
  framework_.stage_kill_progress(task, progress);
}

void JobEngine::ckpt_observe_exposure(SimTime now) {
  // Tick-sampled exposure: the current Ready count applied over the elapsed
  // interval. Piecewise-constant, but unbiased enough that the estimate
  // converges to the configured crash rate on long runs (pinned by test).
  double ready = 0.0;
  for (InstanceId id : cloud_.live()) {
    if (cloud_.instance(id).state == InstanceState::Ready) ready += 1.0;
  }
  ckpt_sched_.hazard().add_exposure_hours(ready * (now - ckpt_exposure_mark_) /
                                          3600.0);
  ckpt_exposure_mark_ = now;
}

void JobEngine::set_checkpoint_channel(double bandwidth_mb_per_s, SimTime now) {
  if (!config_.checkpoint.enabled() ||
      bandwidth_mb_per_s == ckpt_channel_.capacity()) {
    return;  // no-op installs must not perturb the event stream
  }
  ckpt_channel_.set_capacity(bandwidth_mb_per_s,
                             std::max(now, queue_.last_popped_time()), queue_);
}

void JobEngine::set_checkpoint_window(SimTime offset, double length,
                                      double period) {
  ckpt_window_offset_ = offset;
  ckpt_window_length_ = length;
  ckpt_window_period_ = period;
}

void JobEngine::handle_instance_ready(const Event& e) {
  const InstanceId id = e.payload;
  if (cloud_.instance(id).state == InstanceState::Terminated) return;
  if (faults_.enabled() && faults_.boot_failed(id)) {
    // Provisioning failure: the boot times out instead of coming up. The
    // instance was never Ready, so it is never billed.
    cloud_.terminate(id, e.time);
    store_.on_instance_removed(id);
    faults_.record(e.time, FaultKind::ProvisionFailure, id, 0, 0.0);
    return;
  }
  cloud_.mark_ready(id, e.time);
  framework_.register_instance(id, config_.slots_per_instance);
  maybe_arm_crash(id, e.time);
  dispatch_all(e.time);
}

void JobEngine::maybe_arm_crash(InstanceId id, SimTime now) {
  if (!faults_.enabled()) return;
  const SimTime delay = faults_.sample_crash_delay();
  if (delay < 0.0) return;
  const SimTime crash_at = now + delay;
  const SimTime notice_at =
      std::max(now, crash_at - config_.faults.crash_notice_seconds);
  cloud_.mark_doomed(id, crash_at, notice_at);
  queue_.schedule(crash_at, EventKind::InstanceCrash, id);
}

void JobEngine::handle_instance_crash(const Event& e) {
  const InstanceId id = e.payload;
  if (cloud_.instance(id).state != InstanceState::Ready) {
    return;  // released (drained/terminated) before the crash landed
  }
  // Terminate-style lifecycle: the store journals the same events a
  // policy-ordered release would — MonitorDelta stays exact.
  if (config_.checkpoint.enabled()) ckpt_sched_.hazard().record_crash();
  kill_instance(id, e.time);
  faults_.record(e.time, FaultKind::InstanceCrash, id, 0,
                 config_.faults.crash_notice_seconds);
  settle_kills(e.time);
}

void JobEngine::kill_instance(InstanceId id, SimTime now) {
  if (config_.checkpoint.enabled()) {
    for (TaskId t : framework_.tasks_on(id)) stage_ckpt_kill(t, now);
  }
  framework_.resubmit_tasks_on(id, now);
  cloud_.terminate(id, now);
  store_.on_instance_removed(id);
}

void JobEngine::settle_kills(SimTime now) {
  // Transfers of resubmitted attempts are dropped silently.
  fabric_.purge(now, queue_, alive_flow(), [](const SharedChannel::Flow&) {});
  purge_stale_ckpt_writes(now);
  dispatch_all(now);
}

void JobEngine::retry_or_quarantine(TaskId task, std::uint32_t failures,
                                    std::uint32_t limit, SimTime now) {
  // Only the checkpoint channel is purged: a task death never strands a
  // fabric flow (the attempt was executing, not transferring), and a fabric
  // purge would still advance the fabric clock, splitting its arithmetic.
  purge_stale_ckpt_writes(now);
  if (failures >= limit) {
    for (TaskId poisoned : framework_.quarantine(task)) {
      faults_.record(now, FaultKind::TaskQuarantine, poisoned, 0, 0.0);
    }
    if (framework_.all_complete()) {
      end_time_ = now;
      return;
    }
  } else {
    // One backoff ladder for both kinds; an OOM retry re-dispatches with an
    // upsized reservation (clamp_reservation grows it per OOM attempt). The
    // retry is stamped with the combined failure count it was scheduled for.
    const double backoff =
        config_.retry.backoff_base_seconds *
        std::pow(config_.retry.backoff_factor,
                 static_cast<double>(failures - 1));
    const TaskRuntime& rt = framework_.runtime(task);
    queue_.schedule(now + backoff, EventKind::TaskRetry, task,
                    rt.failed_attempts + rt.oom_attempts);
  }
  dispatch_all(now);  // the death freed a slot (and its reservation)
}

void JobEngine::handle_task_faulted(const Event& e) {
  const TaskId task = e.payload;
  if (!attempt_is_current(task, e.aux)) return;
  stage_ckpt_kill(task, e.time);
  const std::uint32_t failures = framework_.on_task_failed(task, e.time);
  faults_.record(e.time, FaultKind::TaskFault, task, failures,
                 framework_.runtime(task).last_failed_elapsed);
  retry_or_quarantine(task, failures, config_.retry.max_attempts, e.time);
}

void JobEngine::handle_task_oom(const Event& e) {
  const TaskId task = e.payload;
  if (!attempt_is_current(task, e.aux)) return;
  const double true_peak = framework_.runtime(task).true_peak_mem_mb;
  stage_ckpt_kill(task, e.time);
  const std::uint32_t ooms = framework_.on_task_oom(task, e.time);
  faults_.record(e.time, FaultKind::OomKill, task, ooms, true_peak);
  retry_or_quarantine(task, ooms, config_.memory.max_oom_attempts, e.time);
}

void JobEngine::handle_task_retry(const Event& e) {
  const TaskId task = e.payload;
  const TaskRuntime& rt = framework_.runtime(task);
  // Stale if the task moved on (quarantined by an ancestor's exhaustion, or
  // failed again through some other path since this retry was scheduled).
  // The guard counts transient failures and OOM kills together, so either
  // kind of later death invalidates an in-flight retry.
  if (rt.phase != TaskPhase::Pending || rt.quarantined ||
      rt.failed_attempts + rt.oom_attempts != e.aux) {
    return;
  }
  framework_.requeue_failed(task, e.time);
  dispatch_all(e.time);
}

void JobEngine::handle_transfer_in_done(const Event& e) {
  const TaskId task = e.payload;
  if (!attempt_is_current(task, e.aux)) return;
  finish_transfer_in(task, e.time);
}

void JobEngine::handle_exec_done(const Event& e) {
  const TaskId task = e.payload;
  if (!attempt_is_current(task, e.aux)) return;
  if (config_.checkpoint.enabled()) {
    TaskCkptState& st = ckpt_states_[task];
    WIRE_CHECK(st.attempt == e.aux && st.segment_start >= 0.0,
               "exec finished on a stalled attempt");
    st.exec_done = st.exec_total;
    st.segment_start = -1.0;
    // Report pure executed seconds: the attempt's wall span includes
    // checkpoint stalls, which must not pollute exec-time observations.
    framework_.on_exec_done(task, e.time, st.exec_total);
  } else {
    framework_.on_exec_done(task, e.time);
  }
  begin_transfer(task, /*inbound=*/false, workflow_.task(task).output_mb,
                 e.time);
}

void JobEngine::handle_transfer_out_done(const Event& e) {
  const TaskId task = e.payload;
  if (!attempt_is_current(task, e.aux)) return;
  finish_transfer_out(task, e.time);
}

const MonitorSnapshot& JobEngine::peek_monitor(SimTime now) {
  return store_.peek(now, effective_cap(), cloud_, framework_, config_);
}

void JobEngine::apply_command(const PoolCommand& cmd, SimTime now) {
  // Drain reclaims first: they add capacity instantly and may make grow
  // requests unnecessary (the policy accounts for that when it issues both).
  bool reclaimed = false;
  for (InstanceId id : cmd.cancel_drains) {
    if (id >= cloud_.instance_count()) continue;
    const Instance& inst = cloud_.instance(id);
    if (inst.state != InstanceState::Ready || inst.drain_at < 0.0) continue;
    cloud_.cancel_drain(id);
    reclaimed = true;
  }
  if (reclaimed) dispatch_all(now);

  // Grow, clipped to the binding ceiling (site capacity and, in multi-tenant
  // runs, the external arbiter share).
  std::uint32_t grow = cmd.grow;
  const std::uint32_t cap = effective_cap();
  const std::uint32_t live = cloud_.live_count();
  grow = live >= cap ? 0 : std::min(grow, cap - live);
  for (std::uint32_t i = 0; i < grow; ++i) {
    SimTime lag_override = -1.0;
    bool boot_fails = false;
    if (faults_.enabled()) {
      const BootPlan plan = faults_.plan_boot();
      boot_fails = plan.failed;
      if (plan.lag_multiplier != 1.0) {
        lag_override = config_.lag_seconds * plan.lag_multiplier;
      }
    }
    const InstanceId id = cloud_.request(
        now, variability_.sample_instance_factor(), lag_override);
    if (boot_fails) faults_.set_boot_failed(id);
    if (lag_override >= 0.0) {
      faults_.record(now, FaultKind::StragglerBoot, id, 0,
                     config_.faults.straggler_lag_multiplier);
    }
    store_.on_instance_added(id);
    queue_.schedule(cloud_.instance(id).ready_at, EventKind::InstanceReady,
                    id);
  }

  // Releases.
  bool killed = false;
  for (const Release& rel : cmd.releases) {
    if (rel.instance >= cloud_.instance_count()) continue;
    const Instance& inst = cloud_.instance(rel.instance);
    if (inst.state == InstanceState::Terminated) continue;
    if (inst.state == InstanceState::Provisioning) {
      // Cancel mid-boot: never billed, never usable.
      cloud_.terminate(rel.instance, now);
      store_.on_instance_removed(rel.instance);
      continue;
    }
    if (rel.at_charge_boundary) {
      if (inst.drain_at >= 0.0) continue;  // already draining
      const SimTime when = cloud_.schedule_drain(rel.instance, now);
      queue_.schedule(when, EventKind::InstanceDrain, rel.instance);
    } else {
      kill_instance(rel.instance, now);
      killed = true;
    }
  }
  if (killed) settle_kills(now);
}

void JobEngine::handle_control_tick(const Event& e) {
  if (framework_.all_complete()) return;
  ++control_ticks_;
  // Monitoring dropout: this tick's delta is withheld — the policy sees the
  // refreshed fields but a non-exact, empty delta (consumers fall back to
  // their full-scan paths), and the pending journal coalesces into the next
  // successful refresh.
  const bool dropout = faults_.enabled() && faults_.drop_monitor_tick();
  if (dropout) {
    faults_.record(e.time, FaultKind::MonitorDropout, 0, 0, 0.0);
  }
  if (config_.checkpoint.enabled()) {
    ckpt_observe_exposure(e.time);
    // Latch the checkpoint demand signal like requested_pool_: the bytes the
    // current running set would write, read by a site arbiter at rebalance.
    double demand = 0.0;
    for (InstanceId id : cloud_.live()) {
      if (cloud_.instance(id).state != InstanceState::Ready) continue;
      for (TaskId t : framework_.tasks_on(id)) demand += ckpt_size_mb(t);
    }
    ckpt_demand_mb_ = demand;
  }
  // O(running + live + ready) store refresh instead of an O(total tasks)
  // rebuild; the published delta lets consumers skip their own rescans too.
  const MonitorSnapshot& snap =
      dropout
          ? store_.peek(e.time, effective_cap(), cloud_, framework_, config_)
          : store_.refresh(e.time, effective_cap(), cloud_, framework_,
                           config_);
  if (options_.record_pool_timeline) {
    PoolSample sample;
    sample.time = e.time;
    sample.live_instances = cloud_.live_count();
    sample.ready_tasks = static_cast<std::uint32_t>(snap.ready_queue.size());
    sample.running_tasks = store_.running_count();
    timeline_.push_back(sample);
  }
  const PoolCommand cmd = policy_.plan(snap);
  // The demand signal: the policy's own desired size when reported, else the
  // pool its command steers toward (non-draining live + grows - releases),
  // both pre-clamping.
  if (cmd.desired_pool > 0) {
    requested_pool_ = cmd.desired_pool;
  } else {
    std::uint32_t m = 0;
    for (const InstanceObservation& inst : snap.instances) {
      if (!inst.draining) ++m;
    }
    const std::uint32_t releases =
        static_cast<std::uint32_t>(cmd.releases.size());
    requested_pool_ = m + cmd.grow - std::min(releases, m + cmd.grow);
  }
  requested_mem_mb_ = cmd.desired_mem_mb;
  remaining_budget_units_ = cmd.remaining_budget_units;
  apply_command(cmd, e.time);
  queue_.schedule(e.time + config_.lag_seconds, EventKind::ControlTick, 0);
}

void JobEngine::handle_instance_drain(const Event& e) {
  const InstanceId id = e.payload;
  const Instance& inst = cloud_.instance(id);
  if (inst.state != InstanceState::Ready) return;
  if (inst.drain_at < 0.0 || std::abs(inst.drain_at - e.time) > 1e-6) {
    return;  // drain was cancelled or rescheduled
  }
  kill_instance(id, e.time);
  settle_kills(e.time);
}

RunResult JobEngine::result() {
  WIRE_REQUIRE(done(), "result before completion");
  WIRE_REQUIRE(!finalized_, "result already taken");
  finalized_ = true;
  WIRE_CHECK(end_time_ >= 0.0, "run finished without an end time");

  // Stragglers from attempts that died right at the end count as lost.
  purge_stale_ckpt_writes(end_time_);

  // Release whatever is still allocated; paid units up to now are kept.
  while (cloud_.live_count() > 0) {
    cloud_.terminate(cloud_.live().back(), end_time_);
  }

  RunResult result;
  result.policy_name = policy_.name();
  result.makespan = end_time_;
  result.cost_units = cloud_.total_charged_units(end_time_);
  result.ready_instance_seconds = cloud_.total_ready_seconds(end_time_);
  result.busy_slot_seconds = framework_.busy_slot_seconds();
  result.wasted_slot_seconds = framework_.wasted_slot_seconds();
  const double capacity =
      result.ready_instance_seconds * config_.slots_per_instance;
  result.utilization = capacity > 0.0
                           ? (result.busy_slot_seconds +
                              result.wasted_slot_seconds) / capacity
                           : 0.0;
  result.peak_instances = cloud_.peak_live();
  result.task_restarts = framework_.total_restarts();
  result.control_ticks = control_ticks_;
  result.task_faults = framework_.total_task_faults();
  result.instance_crashes = faults_.count(FaultKind::InstanceCrash);
  result.provision_failures = faults_.count(FaultKind::ProvisionFailure);
  result.straggler_boots = faults_.count(FaultKind::StragglerBoot);
  result.monitor_dropouts = faults_.count(FaultKind::MonitorDropout);
  result.checkpoints_completed = ckpt_completed_;
  result.checkpoints_lost = ckpt_lost_;
  result.checkpoint_io_slot_seconds = ckpt_io_slot_seconds_;
  result.lost_work_seconds = framework_.lost_work_seconds();
  result.oom_kills = framework_.total_oom_kills();
  result.mem_reserved_mb_seconds = framework_.mem_reserved_mb_seconds();
  result.mem_used_mb_seconds = framework_.mem_used_mb_seconds();
  result.fault_trace = faults_.trace();
  result.task_records.reserve(workflow_.task_count());
  for (TaskId t = 0; t < workflow_.task_count(); ++t) {
    result.task_records.push_back(framework_.runtime(t));
    if (framework_.runtime(t).quarantined) {
      result.quarantined_tasks.push_back(t);
    }
  }
  result.pool_timeline = std::move(timeline_);
  return result;
}

}  // namespace wire::sim
