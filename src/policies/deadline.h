// Deadline-aware autoscaling (extension beyond the paper).
//
// Jockey (§II, [4]) targets guaranteed job latency; WIRE targets efficiency.
// This policy composes WIRE's own building blocks — the online TaskPredictor
// and the lookahead load projection — into a latency-SLO controller: size
// the pool so the predicted remaining work finishes by the deadline, and
// release (under the steering discipline) when ahead of schedule. The
// deadline-sweep bench measures the cost of tightening the SLO.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "predict/history.h"
#include "predict/task_predictor.h"
#include "sim/scaling_policy.h"

namespace wire::policies {

class DeadlinePolicy final : public sim::ScalingPolicy {
 public:
  /// Targets completion within `deadline_seconds` of the run start. With a
  /// `history` archive (a prior run of the same workflow) the remaining-work
  /// estimate covers unstarted stages too — the Jockey recipe; without it,
  /// estimates are online-only (§III-C policies), which systematically
  /// under-counts deep DAGs whose later stages have produced no data yet
  /// (policy 1 predicts zero).
  explicit DeadlinePolicy(
      double deadline_seconds,
      std::shared_ptr<const std::vector<predict::HistoryRecord>> history =
          nullptr);

  std::string name() const override;
  void on_run_start(const dag::Workflow& workflow,
                    const sim::CloudConfig& config) override;
  sim::PoolCommand plan(const sim::MonitorSnapshot& snapshot) override;

 private:
  double deadline_;
  std::shared_ptr<const std::vector<predict::HistoryRecord>> history_;
  const dag::Workflow* workflow_ = nullptr;
  sim::CloudConfig config_;
  std::unique_ptr<predict::Estimator> predictor_;
  /// predictor_ when it is the online TaskPredictor, else null.
  const predict::TaskPredictor* online_ = nullptr;
};

}  // namespace wire::policies
