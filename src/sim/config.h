// Configuration of the simulated IaaS cloud (the ExoGENI substitute).
//
// §IV-B of the paper: worker instances are XOXLarge ExoGENI VMs hosting up to
// four concurrent tasks; a site provides at most 12 instances; instantiation
// lag is ~3 minutes (also used as the MAPE interval); charging units are
// 1/15/30/60 minutes. These are the defaults below.
#pragma once

#include <cstdint>

namespace wire::sim {

/// Simulation time in seconds.
using SimTime = double;

/// Ground-truth variability knobs (Observations 1 & 2 of the paper): tasks in
/// a stage are skewed by the workload generator; on top of that, instances
/// differ in speed and runs suffer transient interference. The controller
/// never sees these parameters.
struct VariabilityConfig {
  /// Lognormal sigma of the per-instance speed factor (drawn at boot) —
  /// "different types of VM instances have different per-core memory
  /// bandwidths" / heterogeneous hardware behind identical flavors.
  double instance_speed_sigma = 0.04;
  /// Lognormal sigma of per-execution interference noise — co-located load.
  double interference_sigma = 0.04;
  /// Lognormal sigma of a per-RUN global speed factor (drawn once per run,
  /// multiplying every execution) — the §II-B across-run variability:
  /// different datasets, resource types and co-located load make the same
  /// workflow run at different speeds on different days. Online prediction
  /// adapts to it automatically; history-based prediction does not.
  double run_speed_sigma = 0.0;
  /// Lognormal sigma of data-transfer time noise — transient network
  /// contention (the paper models transfers as memoryless and estimates them
  /// with a recent median).
  double transfer_noise_sigma = 0.30;
  /// Fixed per-transfer latency, seconds (connection setup); applied only to
  /// transfers with non-zero payload.
  double transfer_latency_seconds = 0.5;
  /// Sustained per-transfer (per-link) bandwidth, MB/s.
  double bandwidth_mb_per_s = 100.0;
  /// Aggregate bandwidth of the shared storage/network fabric, MB/s.
  /// Concurrent transfers share it processor-style (each proceeds at
  /// min(per-link, aggregate / active transfers)) — the §II-B/§III-B1
  /// observation that transfer performance varies with the number of
  /// instances. 0 = unlimited (no contention; every transfer runs at link
  /// speed for a fixed duration).
  double aggregate_bandwidth_mb_per_s = 0.0;
};

/// Fault-injection knobs (all zero by default = the perfectly reliable cloud
/// the seed implementation modeled). When every rate is zero the engine never
/// constructs fault events and never draws from the fault RNG stream, so
/// fault-free runs stay byte-identical to the pre-fault implementation. The
/// controller never sees these parameters — only their consequences
/// (revocation notices, lifecycle events, failed attempts).
struct FaultConfig {
  /// Instance crash/revocation rate per instance-hour of Ready time. Each
  /// instance draws an exponential lifetime when it becomes Ready; at that
  /// point it is reclaimed exactly like a terminate (billing stops, in-flight
  /// tasks re-fire through the restart path).
  double crash_rate_per_hour = 0.0;
  /// Advance revocation notice, seconds (spot-style "you will lose this
  /// instance at T"). From `crash_at - notice` onward the instance reports
  /// `revoking = true` in its MonitorSnapshot row; policies must not count it
  /// as stable capacity. 0 = crashes arrive unannounced.
  double crash_notice_seconds = 0.0;
  /// Probability that a provisioning request never comes up: the boot fails
  /// at its ready time and the instance terminates without ever being Ready
  /// (and is therefore never billed).
  double provision_failure_prob = 0.0;
  /// Probability that a boot straggles: its provisioning lag is multiplied by
  /// `straggler_lag_multiplier`.
  double straggler_prob = 0.0;
  double straggler_lag_multiplier = 3.0;
  /// Per-attempt transient task failure probability. A failing attempt dies
  /// partway through execution (uniform fraction of its exec time), wasting
  /// the occupancy so far; the framework retries with exponential backoff and
  /// quarantines the task (plus all descendants) after RetryConfig's
  /// max_attempts failures.
  double task_failure_prob = 0.0;
  /// Per-control-tick probability that the monitoring delta is withheld: the
  /// policy sees a peek-style snapshot (refreshed fields, `delta.exact =
  /// false`) and the journal coalesces into the next successful tick.
  double monitor_dropout_prob = 0.0;

  bool enabled() const {
    return crash_rate_per_hour > 0.0 || provision_failure_prob > 0.0 ||
           straggler_prob > 0.0 || task_failure_prob > 0.0 ||
           monitor_dropout_prob > 0.0;
  }
};

/// Memory as a second resource dimension (extension beyond the paper: the
/// Ponder / Sizey line of memory-prediction work). Disabled by default
/// (instance_mem_mb == 0 = unlimited memory): the engine never draws from the
/// memory RNG stream, never books reservations against capacity and never
/// schedules OOM events, so memory-off runs stay byte-identical to the
/// memory-less implementation — the same zero-rate discipline FaultConfig
/// established.
struct MemoryConfig {
  /// Physical memory per worker instance, MB. 0 = unlimited (the memory
  /// dimension is off end to end).
  double instance_mem_mb = 0.0;
  /// Lognormal sigma of the per-task noise around the reference peak memory
  /// (the true peak an attempt actually reaches; drawn once per task).
  double noise_sigma = 0.0;

  /// Reservation sizing policy: how the framework master (and the
  /// controller's MemoryPredictor) turn peak history into a reservation.
  enum class Sizing : std::uint8_t {
    /// Mean of the observed peaks for the task's stage.
    Mean,
    /// Percentile of the observed peaks (Sizey-style), `percentile` below.
    Percentile,
    /// Ground-truth reference peak times safety_factor (no learning; the
    /// wastage floor for a noise-free run).
    Oracle,
  };
  Sizing sizing = Sizing::Percentile;
  /// Percentile used by Sizing::Percentile, in (0, 1].
  double percentile = 0.95;
  /// Headroom multiplier applied on top of the sized estimate.
  double safety_factor = 1.1;
  /// Cold-start reservation when a stage has no completed peak yet, MB.
  /// 0 = fair share (instance_mem_mb / slots_per_instance).
  double default_mb = 0.0;
  /// Floor for any reservation, MB.
  double min_reservation_mb = 64.0;
  /// Reservation growth factor per OOM retry (retry-with-upsizing): attempt
  /// k after k OOM kills books `upsize_factor^k` times the sized estimate
  /// (clamped to instance capacity).
  double upsize_factor = 2.0;
  /// OOM kills tolerated per task before it is quarantined like a poison
  /// task (reuses the transient-failure quarantine machinery).
  std::uint32_t max_oom_attempts = 3;

  bool enabled() const { return instance_mem_mb > 0.0; }
};

/// Scheduled checkpointing on a shared checkpoint channel (extension beyond
/// the paper: the SMURFS InterferingCheckpoints line of work). Disabled by
/// default (channel_bandwidth_mb_per_s == 0): the engine schedules no
/// checkpoint events, draws no RNG, and books no channel time, so
/// checkpoint-off runs stay byte-identical to the pre-checkpoint
/// implementation — the same zero-rate discipline FaultConfig and
/// MemoryConfig established. When enabled, the legacy instantaneous
/// `CloudConfig::checkpoint_fraction` salvage is superseded: a killed attempt
/// salvages exactly the execution progress covered by its last *completed*
/// checkpoint write, and writes in flight at the kill are lost.
struct CheckpointConfig {
  /// Aggregate bandwidth of the shared checkpoint channel, MB/s. Concurrent
  /// checkpoint writes from co-located tasks share it processor-style (each
  /// proceeds at bandwidth / active writes), mirroring the transfer fabric
  /// model. 0 = checkpoint scheduling is off end to end.
  double channel_bandwidth_mb_per_s = 0.0;
  /// Checkpoint image size when the memory dimension is off (no reservation
  /// to derive it from), MB. With memory on, a task's image size is its
  /// booked reservation.
  double default_size_mb = 256.0;

  /// How the engine-side CheckpointScheduler picks the interval between a
  /// task's checkpoint writes.
  enum class IntervalPolicy : std::uint8_t {
    /// Young/Daly: sqrt(2 * write_cost * MTBF) from the online hazard
    /// estimate; hazard -> 0 pushes the interval to infinity (no
    /// checkpoints on a reliable cloud).
    YoungDaly,
    /// Fixed interval (`static_interval_seconds`) — the ablation.
    Static,
  };
  IntervalPolicy interval_policy = IntervalPolicy::YoungDaly;
  /// Interval used by IntervalPolicy::Static, seconds.
  double static_interval_seconds = 600.0;
  /// Floor under any computed interval, seconds (a near-zero Young/Daly
  /// interval under an extreme hazard estimate must not livelock a task).
  double min_interval_seconds = 30.0;

  /// Prior mean of the hazard estimate, crashes per instance-hour, blended
  /// with observed crashes per observed ready instance-hour. A zero prior
  /// with no observed crashes estimates zero hazard (Young/Daly never
  /// checkpoints until the first crash is seen).
  double hazard_prior_per_hour = 0.0;
  /// Pseudo-observation weight of the prior, instance-hours.
  double hazard_prior_weight_hours = 1.0;

  bool enabled() const { return channel_bandwidth_mb_per_s > 0.0; }

  /// Throws ContractViolation when an enabled configuration can never make
  /// progress or yields NaN intervals: the floor must be finite and positive
  /// (a zero interval re-fires a zero-cost write at the same instant
  /// forever), the image size and the hazard prior finite and non-negative,
  /// and a Static interval positive. No-op when disabled. Part of
  /// CloudConfig::validate().
  void validate() const;
};

/// Bounded retry policy for transient task failures (only exercised when
/// FaultConfig::task_failure_prob > 0).
struct RetryConfig {
  /// Transient failures tolerated per task before it is quarantined as a
  /// poison task (its descendants are quarantined with it and the run
  /// completes without them; RunResult lists the quarantined set).
  std::uint32_t max_attempts = 3;
  /// Backoff before retry k (1-based) is `base * factor^(k-1)` sim-seconds.
  double backoff_base_seconds = 30.0;
  double backoff_factor = 2.0;
};

/// Static parameters of the simulated cloud site.
struct CloudConfig {
  /// Provisioning lag t: the maximum delay to launch or release an instance.
  /// Also the MAPE control interval (§III-A sets them equal).
  SimTime lag_seconds = 180.0;
  /// Charging unit u: instances are billed per started unit of this length.
  SimTime charging_unit_seconds = 900.0;
  /// Task slots per worker instance (l).
  std::uint32_t slots_per_instance = 4;
  /// Site capacity: maximum concurrently allocated instances (0 = unlimited).
  std::uint32_t max_instances = 12;
  /// Ground-truth variability model.
  VariabilityConfig variability;

  /// Restart-cost threshold as a fraction of u ("arbitrarily chosen as 0.2u
  /// ... but freely configurable", §III-D). Exposed for the ablation bench.
  double restart_cost_fraction = 0.2;

  /// Ready tasks per stage promoted to high dispatch priority so the online
  /// predictor gets early observations (§III-C dispatches "the first five
  /// ready-to-run tasks ... with high priority"). 0 disables the rule
  /// (ablation).
  std::uint32_t first_fire_priority = 5;

  /// Fixed per-dispatch scheduling overhead (seconds) between slot
  /// assignment and the start of the input transfer — the negotiation /
  /// job-startup cost of the real Condor stack. Counted as slot occupancy.
  double dispatch_overhead_seconds = 0.0;

  /// Extension (beyond the paper): fraction of a killed task's execution
  /// progress salvaged by checkpointing when it restarts (0 = none, the
  /// paper's model; 1 = perfect resume). Salvage reduces the next attempt's
  /// execution time; the steering policies discount restart costs by the
  /// same fraction. The checkpoint study of bench_studies runs 0.5 as its
  /// legacy arm.
  double checkpoint_fraction = 0.0;

  /// Scheduled checkpointing on a shared channel (bandwidth 0 = off). When
  /// enabled it supersedes the instantaneous `checkpoint_fraction` model.
  CheckpointConfig checkpoint;

  /// Ground-truth fault injection (all-zero = reliable cloud).
  FaultConfig faults;
  /// Retry/backoff discipline for transient task failures.
  RetryConfig retry;
  /// Memory dimension (instance_mem_mb == 0 = unlimited, off).
  MemoryConfig memory;

  /// Throws ContractViolation unless every knob is in range: lag and
  /// charging unit finite and positive, at least one slot; sigmas, transfer
  /// latency, dispatch overhead, aggregate bandwidth and restart-cost
  /// fraction finite and non-negative; link bandwidth finite and positive;
  /// checkpoint_fraction in [0, 1]; the checkpoint config runnable
  /// (CheckpointConfig::validate); fault probabilities in [0, 1]; at least
  /// one retry attempt and a finite, non-negative backoff; memory knobs in
  /// range. An infinite lag or a NaN latency would otherwise run forever or
  /// index past the end of the lookahead's boot list. Called by JobEngine's
  /// and EnsembleDriver's constructors.
  void validate() const;
};

}  // namespace wire::sim
