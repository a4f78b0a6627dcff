// Hazard-driven checkpoint-interval scheduling (extension beyond the paper:
// the SMURFS InterferingCheckpoints line of work).
//
// The scheduler owns an online hazard estimator fed by the observed fault
// stream — crashes per ready instance-hour, the same quantity
// FaultConfig::crash_rate_per_hour parameterizes, so on a long run the
// estimate converges to the configured rate (pinned by
// tests/test_sim_checkpoint_sched.cpp). From the estimate it picks
// Young/Daly-style intervals: T = sqrt(2 * write_cost * MTBF). A zero
// estimate (no prior, no crash observed yet) pushes the interval to
// infinity, so a reliable cloud never checkpoints; the Static policy is the
// ablation against which the hazard-driven interval must win on total waste
// (the checkpoint study of bench_studies).
//
// Everything here is arithmetic over observed events — no RNG draws — which
// is what makes scheduled-checkpoint runs bit-replayable from a recorded
// FaultTrace.
// Header-only: the ground-truth engine (wire_sim) drives the scheduler for
// its checkpoint events while wire_policies links against wire_sim — an
// out-of-line definition here would cycle the two archives.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "sim/config.h"

namespace wire::policies {

/// Online crash-hazard estimate: (prior mass + observed crashes) over
/// (prior weight + observed ready instance-hours).
class HazardEstimator {
 public:
  HazardEstimator(double prior_per_hour, double prior_weight_hours)
      : prior_per_hour_(prior_per_hour),
        prior_weight_hours_(prior_weight_hours) {}

  /// One observed instance crash/revocation.
  void record_crash() { ++crashes_; }
  /// Accumulates observed Ready instance time (the denominator's exposure).
  void add_exposure_hours(double hours) { exposure_hours_ += hours; }

  /// Crashes per instance-hour. Zero until either the prior or an observed
  /// crash contributes mass. With a zero-weight prior, crashes observed
  /// before any exposure accrues (instances killed while still
  /// provisioning, or a crash on the first control tick) must still yield a
  /// finite hazard: returning 0 here would declare the cloud reliable at
  /// the exact moment it demonstrated otherwise, and Young/Daly would pick
  /// an infinite checkpoint interval. The exposure denominator is floored
  /// at one instance-second.
  double hazard_per_hour() const {
    const double weight = prior_weight_hours_ + exposure_hours_;
    if (weight <= 0.0) {
      if (crashes_ == 0) return 0.0;
      return static_cast<double>(crashes_) / kMinExposureHours;
    }
    return (prior_per_hour_ * prior_weight_hours_ +
            static_cast<double>(crashes_)) /
           weight;
  }

 private:
  /// Exposure floor for the crash-before-exposure estimate: one
  /// instance-second, in hours.
  static constexpr double kMinExposureHours = 1.0 / 3600.0;

  double prior_per_hour_;
  double prior_weight_hours_;
  double exposure_hours_ = 0.0;
  std::uint64_t crashes_ = 0;
};

/// Picks the interval between a task's checkpoint writes.
class CheckpointScheduler {
 public:
  explicit CheckpointScheduler(const sim::CheckpointConfig& config)
      : config_(config),
        hazard_(config.hazard_prior_per_hour,
                config.hazard_prior_weight_hours) {}

  HazardEstimator& hazard() { return hazard_; }
  const HazardEstimator& hazard() const { return hazard_; }

  /// Seconds of execution between checkpoints for a task whose write costs
  /// `write_cost_seconds` at full channel bandwidth. Young/Daly uses the
  /// live hazard estimate and returns +infinity at zero hazard (never
  /// checkpoint on a cloud believed reliable); Static returns the fixed
  /// ablation interval. Both respect the configured floor.
  double interval_seconds(double write_cost_seconds) const {
    double interval = 0.0;
    switch (config_.interval_policy) {
      case sim::CheckpointConfig::IntervalPolicy::YoungDaly: {
        const double hazard_per_hour = hazard_.hazard_per_hour();
        if (hazard_per_hour <= 0.0 || write_cost_seconds <= 0.0) {
          return std::numeric_limits<double>::infinity();
        }
        // T = sqrt(2 * delta * MTBF): delta = the write cost, MTBF seconds.
        const double mtbf_seconds = 3600.0 / hazard_per_hour;
        interval = std::sqrt(2.0 * write_cost_seconds * mtbf_seconds);
        break;
      }
      case sim::CheckpointConfig::IntervalPolicy::Static:
        interval = config_.static_interval_seconds;
        break;
    }
    return std::max(interval, config_.min_interval_seconds);
  }

 private:
  sim::CheckpointConfig config_;
  HazardEstimator hazard_;
};

}  // namespace wire::policies
