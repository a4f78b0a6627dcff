// Ground-truth performance model (hidden from the controller).
//
// Implements the variability the paper motivates in §II: intra-stage load
// skew is baked into the workload's per-task reference times; this model adds
// the *across-run* effects — per-instance speed differences and transient
// interference on executions and transfers. All draws come from a seeded RNG
// owned by the run, so a run is reproducible and two runs with different
// seeds genuinely differ (what defeats history-based predictors).
#pragma once

#include "sim/config.h"
#include "util/rng.h"

namespace wire::sim {

class VariabilityModel {
 public:
  /// Draws the run-level speed factor immediately (first use of the stream),
  /// so a run's environment is fixed at its start.
  VariabilityModel(const VariabilityConfig& config, std::uint64_t seed);

  /// Speed factor for a newly booted instance (1.0 is nominal; < 1 is faster
  /// in the sense that actual time = reference * factor).
  double sample_instance_factor();

  /// Actual execution duration for a task with reference time `ref_seconds`
  /// on an instance with the given speed factor.
  double sample_exec_seconds(double ref_seconds, double instance_factor);

  /// Actual transfer duration for `payload_mb` of data at full link speed
  /// (no contention). Zero payload costs zero time (in-memory handoff).
  double sample_transfer_seconds(double payload_mb);

  /// Raw multiplicative transfer noise factor (unit-median lognormal) for
  /// the processor-sharing transfer model, where durations emerge from
  /// bandwidth sharing rather than a single draw.
  double sample_transfer_noise();

 private:
  VariabilityConfig config_;
  util::Rng rng_;
  double run_factor_ = 1.0;
};

}  // namespace wire::sim
