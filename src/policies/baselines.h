// Baseline scaling policies from the paper's evaluation (§IV-C):
//
//   full-site / static      — a fixed pool (12 instances in the paper's
//                             "full-site runs"; P = 1 gives the sequential
//                             cost-optimal bound used by Figs. 2–3).
//   pure-reactive           — the pool tracks the number of active tasks
//                             every interval, growing and shrinking
//                             immediately ("capacities of these settings
//                             equal to the loads of active tasks").
//   reactive-conserving     — load is estimated reactively from the
//                             idle/running task count, but releases follow
//                             the resource-steering rules: only at a charge
//                             boundary that falls before the next interval,
//                             and only when the observed sunk cost of the
//                             instance's tasks is under the threshold.
#pragma once

#include <cstdint>
#include <string>

#include "sim/scaling_policy.h"

namespace wire::policies {

/// Fixed-size pool. Pair with RunOptions::initial_instances == size; the
/// policy also tops the pool back up if it ever falls below the target (it
/// never releases).
class StaticPolicy final : public sim::ScalingPolicy {
 public:
  /// `label` defaults to "static-<size>"; the paper's 12-instance setting is
  /// conventionally labelled "full-site".
  explicit StaticPolicy(std::uint32_t size, std::string label = {});

  std::string name() const override { return label_; }
  void on_run_start(const dag::Workflow& workflow,
                    const sim::CloudConfig& config) override;
  sim::PoolCommand plan(const sim::MonitorSnapshot& snapshot) override;

 private:
  std::uint32_t size_;
  std::string label_;
};

/// Pool size = ceil(active tasks / slots per instance), applied immediately
/// in both directions. Victims are the emptiest instances; releases are
/// immediate (forfeiting the rest of the paid unit) — that is the point of
/// comparison with the conserving policies.
class PureReactivePolicy final : public sim::ScalingPolicy {
 public:
  std::string name() const override { return "pure-reactive"; }
  void on_run_start(const dag::Workflow& workflow,
                    const sim::CloudConfig& config) override;
  sim::PoolCommand plan(const sim::MonitorSnapshot& snapshot) override;

 private:
  sim::CloudConfig config_;
};

/// Reactive load estimate + steering-policy release discipline.
class ReactiveConservingPolicy final : public sim::ScalingPolicy {
 public:
  std::string name() const override { return "reactive-conserving"; }
  void on_run_start(const dag::Workflow& workflow,
                    const sim::CloudConfig& config) override;
  sim::PoolCommand plan(const sim::MonitorSnapshot& snapshot) override;

 private:
  sim::CloudConfig config_;
};

}  // namespace wire::policies
