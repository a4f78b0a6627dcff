// Budget-constrained autoscaling (Ilyushkin et al.: performance-feedback
// autoscaling with budget constraints), as a wrapper around any
// sim::ScalingPolicy.
//
// BudgetPolicy tracks spend against a per-job budget using the engine's own
// charging-unit accounting, mirrored from the monitoring surface alone (no
// back-channel into sim::CloudPool): a ready instance has committed
// ceil(elapsed / u) units, a vanished one retires its last known count. The
// enforcement signal is *projected* spend — committed units plus the burn the
// wrapped policy's command would start over the next control interval
// (core::units_starting_within per row) — so budgets bind before the money
// is gone, not after. Three throttle modes shape the wrapped policy's pool
// before the hard affordability pass:
//
//   kHardCap       — no shaping; only the projection ceiling binds (never
//                    start a unit you cannot pay for).
//   kLinearTaper   — the desired pool is scaled by remaining/budget, so the
//                    job decelerates smoothly instead of running full tilt
//                    into the wall.
//   kDeadlineAware — the pool is capped at the spend *rate* the deadline
//                    slack allows (remaining * u / time_left): the job
//                    arrives at the deadline exactly as the budget runs out,
//                    the Pareto-optimal schedule when both constraints bind.
//
// When the budget is exhausted the policy degrades to the minimum-progress
// pool — one instance while work remains — rather than deadlocking; the
// overrun is the floor's burn and nothing else. `budget_units == 0` is the
// disabled sentinel: name() and plan() are pure passthrough and every
// baseline stays byte-identical (the same zero-sentinel discipline as
// FaultConfig / MemoryConfig / CheckpointConfig).
#pragma once

#include <map>
#include <memory>
#include <string>

#include "sim/scaling_policy.h"

namespace wire::policies {

enum class BudgetMode {
  kHardCap,
  kLinearTaper,
  kDeadlineAware,
};

struct BudgetOptions {
  /// Total budget in charging units; 0 disables the wrapper entirely
  /// (pure passthrough, bit-identical to the unwrapped policy).
  double budget_units = 0.0;
  BudgetMode mode = BudgetMode::kHardCap;
  /// Job-local deadline (seconds); required > 0 for kDeadlineAware.
  double deadline_seconds = 0.0;
};

class BudgetPolicy final : public sim::ScalingPolicy {
 public:
  /// Takes ownership of the wrapped policy. Requires inner != nullptr,
  /// budget_units >= 0, and a positive deadline when an enabled budget uses
  /// kDeadlineAware.
  BudgetPolicy(std::unique_ptr<sim::ScalingPolicy> inner,
               const BudgetOptions& options);

  std::string name() const override;
  void on_run_start(const dag::Workflow& workflow,
                    const sim::CloudConfig& config) override;
  sim::PoolCommand plan(const sim::MonitorSnapshot& snapshot) override;

  bool enabled() const { return options_.budget_units > 0.0; }
  /// Charging units committed so far (live rows' started units + retired
  /// instances' final counts), refreshed at the last plan() call.
  double committed_units() const { return retired_units_ + live_units_; }
  double remaining_units() const;
  /// True once the committed spend has consumed the whole budget (the policy
  /// is running on the minimum-progress floor).
  bool exhausted() const { return enabled() && remaining_units() <= 0.0; }

 private:
  /// Mirrors the cloud's billing from the snapshot: refreshes per-row
  /// started-unit counts and retires rows that vanished since last tick.
  void refresh_spend(const sim::MonitorSnapshot& snapshot);

  BudgetOptions options_;
  std::unique_ptr<sim::ScalingPolicy> inner_;
  double charging_unit_ = 0.0;
  double lag_seconds_ = 0.0;
  /// Started units per live ready instance (monotone per id; ordered map so
  /// retirement sweeps are deterministic).
  std::map<sim::InstanceId, double> live_committed_;
  double retired_units_ = 0.0;
  double live_units_ = 0.0;
};

}  // namespace wire::policies
