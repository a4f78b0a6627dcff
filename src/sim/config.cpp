#include "sim/config.h"

#include <cmath>

#include "util/check.h"

namespace wire::sim {

namespace {
bool finite_at_least_zero(double v) { return std::isfinite(v) && v >= 0.0; }
bool finite_positive(double v) { return std::isfinite(v) && v > 0.0; }
/// False for NaN as well.
bool unit_interval(double v) { return v >= 0.0 && v <= 1.0; }
}  // namespace

void CheckpointConfig::validate() const {
  if (!enabled()) return;
  WIRE_REQUIRE(finite_positive(min_interval_seconds),
               "checkpoint min_interval_seconds must be finite and positive");
  WIRE_REQUIRE(finite_at_least_zero(default_size_mb),
               "checkpoint default_size_mb must be finite and non-negative");
  WIRE_REQUIRE(finite_at_least_zero(hazard_prior_per_hour) &&
                   finite_at_least_zero(hazard_prior_weight_hours),
               "checkpoint hazard prior must be finite and non-negative");
  WIRE_REQUIRE(interval_policy != IntervalPolicy::Static ||
                   static_interval_seconds > 0.0,
               "static checkpoint interval must be positive");
}

void CloudConfig::validate() const {
  WIRE_REQUIRE(finite_positive(lag_seconds), "lag must be finite and positive");
  WIRE_REQUIRE(finite_positive(charging_unit_seconds),
               "charging unit must be finite and positive");
  WIRE_REQUIRE(slots_per_instance > 0, "need at least one slot");
  const VariabilityConfig& v = variability;
  WIRE_REQUIRE(finite_at_least_zero(v.instance_speed_sigma) &&
                   finite_at_least_zero(v.interference_sigma) &&
                   finite_at_least_zero(v.run_speed_sigma) &&
                   finite_at_least_zero(v.transfer_noise_sigma),
               "variability sigmas must be finite and non-negative");
  WIRE_REQUIRE(finite_at_least_zero(v.transfer_latency_seconds),
               "transfer latency must be finite and non-negative");
  WIRE_REQUIRE(finite_positive(v.bandwidth_mb_per_s),
               "link bandwidth must be finite and positive");
  WIRE_REQUIRE(finite_at_least_zero(v.aggregate_bandwidth_mb_per_s),
               "aggregate bandwidth must be finite and non-negative");
  WIRE_REQUIRE(finite_at_least_zero(restart_cost_fraction),
               "restart_cost_fraction must be finite and non-negative");
  WIRE_REQUIRE(finite_at_least_zero(dispatch_overhead_seconds),
               "dispatch overhead must be finite and non-negative");
  WIRE_REQUIRE(unit_interval(checkpoint_fraction),
               "checkpoint_fraction must lie in [0, 1]");
  checkpoint.validate();

  WIRE_REQUIRE(faults.crash_rate_per_hour >= 0.0 &&
                   faults.crash_notice_seconds >= 0.0 &&
                   unit_interval(faults.provision_failure_prob) &&
                   unit_interval(faults.straggler_prob) &&
                   faults.straggler_lag_multiplier >= 1.0 &&
                   unit_interval(faults.task_failure_prob) &&
                   unit_interval(faults.monitor_dropout_prob),
               "FaultConfig rates out of range");
  WIRE_REQUIRE(retry.max_attempts > 0, "need at least one attempt");
  WIRE_REQUIRE(finite_at_least_zero(retry.backoff_base_seconds) &&
                   finite_at_least_zero(retry.backoff_factor),
               "retry backoff must be finite and non-negative");

  WIRE_REQUIRE(memory.instance_mem_mb >= 0.0 &&
                   finite_at_least_zero(memory.noise_sigma) &&
                   memory.percentile > 0.0 && memory.percentile <= 1.0 &&
                   memory.safety_factor > 0.0 && memory.default_mb >= 0.0 &&
                   memory.min_reservation_mb >= 0.0 &&
                   memory.upsize_factor >= 1.0,
               "MemoryConfig knobs out of range");
}

}  // namespace wire::sim
