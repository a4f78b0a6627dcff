// Deterministic fault-injection substrate for the ground-truth simulator.
//
// A FaultModel owns its own RNG stream (derived from the run seed, distinct
// from the variability stream) and journals every injected fault into a
// FaultTrace, so identical seeds reproduce identical fault schedules
// byte-for-byte. The engine only consults the model when
// FaultConfig::enabled() — with all rates zero no draw is ever made and no
// fault event is ever scheduled, keeping fault-free runs bit-identical to the
// pre-fault implementation.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "sim/config.h"
#include "sim/monitor.h"
#include "util/rng.h"

namespace wire::sim {

/// Kind of an injected fault (FaultTrace journal entries).
enum class FaultKind : std::uint8_t {
  /// A provisioning request never came up; the instance terminated at its
  /// would-be ready time without being billed. subject = instance id.
  ProvisionFailure,
  /// A boot straggled: provisioning lag was multiplied. subject = instance
  /// id; detail = lag multiplier. Journaled at request time.
  StragglerBoot,
  /// A Ready instance was reclaimed. subject = instance id; detail = advance
  /// notice in seconds (0 = unannounced).
  InstanceCrash,
  /// A task attempt died mid-execution. subject = task id; attempt = the
  /// task's failure count after this fault; detail = occupancy seconds lost.
  TaskFault,
  /// A task exhausted its retries (or descends from one that did) and was
  /// quarantined. subject = task id.
  TaskQuarantine,
  /// A control tick whose monitoring delta was withheld (coalesced into the
  /// next tick).
  MonitorDropout,
  /// A task attempt exceeded its memory reservation and was OOM-killed.
  /// subject = task id; attempt = the task's OOM count after this kill;
  /// detail = the true peak in MB.
  OomKill,
};

const char* fault_kind_name(FaultKind kind);

/// One journaled fault. `subject` is an instance id or task id depending on
/// `kind`; `attempt`/`detail` are kind-specific (see FaultKind docs).
struct FaultEvent {
  SimTime time = 0.0;
  FaultKind kind = FaultKind::InstanceCrash;
  std::uint32_t subject = 0;
  std::uint32_t attempt = 0;
  double detail = 0.0;
};

/// Per-run fault journal, in injection order.
using FaultTrace = std::vector<FaultEvent>;

/// Canonical serialization of a trace (CSV rows, hexfloat times) — used both
/// by metrics::write_fault_trace_csv and by the byte-for-byte replay tests.
std::string render_fault_trace(const FaultTrace& trace);

/// Outcome of the boot-time fault draw for one provisioning request.
struct BootPlan {
  /// The boot will fail at its ready time (instance never becomes Ready).
  bool failed = false;
  /// Provisioning-lag multiplier (1.0 = nominal, > 1 = straggler).
  double lag_multiplier = 1.0;
};

/// Outcome of the per-attempt execution fault draw.
struct ExecFaultPlan {
  bool fails = false;
  /// Fraction of the attempt's execution time that elapses before it dies.
  double fraction = 0.0;
};

/// Seeded fault sampler + journal. All sampling methods draw from the model's
/// private stream in call order, so the engine must call them at
/// deterministic points; none of them may be called unless enabled().
class FaultModel {
 public:
  /// `run_seed` is the RunOptions seed; the model derives a private stream
  /// from it so fault draws never perturb the variability stream. The memory
  /// config gates a second private stream for true-peak noise, so enabling
  /// memory never perturbs the fault schedule (and vice versa).
  FaultModel(const FaultConfig& config, std::uint64_t run_seed,
             const MemoryConfig& memory = {});

  bool enabled() const { return enabled_; }

  /// Draws the true peak memory of one task around its reference peak
  /// (lognormal noise, unit median). Requires the memory dimension on
  /// (MemoryConfig::enabled() at construction). Called once
  /// per task (the peak is a property of the task, not the attempt).
  double sample_peak_mem(double ref_peak_mb);

  /// Draws the boot-time faults for a new provisioning request.
  BootPlan plan_boot();

  /// Draws the crash delay for an instance that just became Ready. Returns a
  /// strictly positive delay in seconds, or a negative value when this
  /// instance never crashes (crash rate zero).
  SimTime sample_crash_delay();

  /// Draws the transient-failure outcome for one execution attempt.
  ExecFaultPlan plan_exec();

  /// Draws whether this control tick's monitoring delta is withheld.
  bool drop_monitor_tick();

  /// Marks a request as a doomed boot so the engine can recognize it when its
  /// InstanceReady event fires.
  void set_boot_failed(InstanceId id) { failed_boots_.insert(id); }
  bool boot_failed(InstanceId id) const {
    return failed_boots_.count(id) != 0;
  }

  /// Journals one fault and updates the per-kind counters.
  void record(SimTime time, FaultKind kind, std::uint32_t subject,
              std::uint32_t attempt, double detail);

  const FaultTrace& trace() const { return trace_; }
  std::uint32_t count(FaultKind kind) const;

 private:
  FaultConfig config_;
  MemoryConfig memory_;
  bool enabled_ = false;
  bool mem_enabled_ = false;
  util::Rng rng_;
  util::Rng mem_rng_;
  FaultTrace trace_;
  std::unordered_set<InstanceId> failed_boots_;
  std::vector<std::uint32_t> counts_;
};

}  // namespace wire::sim
