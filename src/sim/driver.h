// The run driver: executes one workflow under one scaling policy on the
// simulated cloud and reports the paper's metrics (makespan, charging units,
// utilization, restarts).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dag/workflow.h"
#include "sim/config.h"
#include "sim/faults.h"
#include "sim/framework.h"
#include "sim/scaling_policy.h"

namespace wire::sim {

struct RunOptions {
  /// Root seed of the run's ground-truth variability.
  std::uint64_t seed = 1;
  /// Instances that are already booted at t = 0 (the framework master's
  /// bootstrap pool; static policies set this to their fixed size).
  std::uint32_t initial_instances = 1;
  /// Hard guard against runaway simulations (finite, > 0).
  SimTime max_sim_seconds = 90.0 * 24.0 * 3600.0;
  /// Record (time, live, ready) pool samples at every control tick.
  bool record_pool_timeline = false;
};

struct PoolSample {
  SimTime time = 0.0;
  std::uint32_t live_instances = 0;
  std::uint32_t ready_tasks = 0;
  std::uint32_t running_tasks = 0;
};

/// Outcome of one simulated run.
struct RunResult {
  std::string policy_name;
  /// Completion time of the last task (seconds).
  SimTime makespan = 0.0;
  /// Total charging units consumed across all instances — the paper's
  /// "resource cost" metric (Fig. 5).
  double cost_units = 0.0;
  /// Instance-seconds spent in the Ready state (utilization denominator).
  double ready_instance_seconds = 0.0;
  /// Slot-seconds spent on successful task occupancy.
  double busy_slot_seconds = 0.0;
  /// Slot-seconds sunk into attempts killed by instance releases.
  double wasted_slot_seconds = 0.0;
  /// busy / (ready_instance_seconds * slots_per_instance).
  double utilization = 0.0;
  std::uint32_t peak_instances = 0;
  std::uint32_t task_restarts = 0;
  std::uint32_t control_ticks = 0;

  // --- Fault injection (all zero/empty on a reliable cloud) ---
  /// Transient task failures across all tasks (retried attempts that died
  /// mid-execution; distinct from task_restarts, which counts kills by
  /// instance releases/crashes).
  std::uint32_t task_faults = 0;
  /// Ready instances reclaimed by the fault model.
  std::uint32_t instance_crashes = 0;
  /// Provisioning requests that never came up (and were never billed).
  std::uint32_t provision_failures = 0;
  /// Boots whose provisioning lag was stretched by the straggler multiplier.
  std::uint32_t straggler_boots = 0;
  /// Control ticks whose monitoring delta was withheld.
  std::uint32_t monitor_dropouts = 0;

  // --- Scheduled checkpointing (all zero when CheckpointConfig is off,
  // --- except lost_work_seconds, which also tracks the legacy
  // --- checkpoint_fraction salvage model) ---
  /// Checkpoint writes that committed on the shared channel.
  std::uint32_t checkpoints_completed = 0;
  /// In-flight writes purged because their attempt was killed mid-write.
  std::uint32_t checkpoints_lost = 0;
  /// Slot-seconds the running set spent stalled on checkpoint I/O (committed
  /// and lost writes both) — the overhead half of the waste metric.
  double checkpoint_io_slot_seconds = 0.0;
  /// Executed seconds destroyed by kills net of salvage — the lost-work half
  /// of the waste metric (the checkpoint study of bench_studies reports
  /// their sum).
  double lost_work_seconds = 0.0;

  // --- Memory dimension (all zero when MemoryConfig is off) ---
  /// Attempts OOM-killed because their true peak exceeded the reservation
  /// (each spawns an upsized retry, or quarantine past max_oom_attempts).
  std::uint32_t oom_kills = 0;
  /// MB-seconds of reserved memory integrated over slot occupancy (every
  /// attempt holds its reservation from dispatch to slot release) — the
  /// over-provisioning wastage numerator.
  double mem_reserved_mb_seconds = 0.0;
  /// MB-seconds a clairvoyant sizer would have booked: true peak times the
  /// occupancy of successful attempts only.
  double mem_used_mb_seconds = 0.0;
  /// Poison tasks: exhausted RetryConfig::max_attempts or
  /// MemoryConfig::max_oom_attempts (or descend from a task that did) and
  /// were excluded from the run, ascending TaskId order. The
  /// run "completes" without them; makespan covers the surviving tasks.
  std::vector<dag::TaskId> quarantined_tasks;
  /// Per-event fault journal, in injection order (replayable byte-for-byte
  /// from the seed; see metrics::write_fault_trace_csv).
  FaultTrace fault_trace;

  /// Final per-task lifecycle records (kickstart archive).
  std::vector<TaskRuntime> task_records;
  /// Present when RunOptions::record_pool_timeline is set.
  std::vector<PoolSample> pool_timeline;
};

/// Runs `workflow` to completion under `policy`. Deterministic in
/// (workflow, policy, config, options.seed). Throws std::runtime_error if the
/// simulation exceeds options.max_sim_seconds (a stuck policy).
RunResult simulate(const dag::Workflow& workflow, ScalingPolicy& policy,
                   const CloudConfig& config, const RunOptions& options = {});

}  // namespace wire::sim
