// History-based estimator: the related-work strawman.
//
// Systems like Jockey and Apollo (§II-B) predict task performance from the
// statistics of *previous runs*. This estimator is built from a prior run's
// kickstart archive: per stage, the median execution time of the previous
// run's tasks, grouped by (near-)equal input size — the strongest reasonable
// per-stage history model. It never updates from the current run.
//
// Its purpose is to reproduce the paper's Observation 2: task execution
// times vary across runs (datasets, resource types, co-location), so
// history mispredicts by the run-to-run factor while online prediction
// adapts. The Observation-2 study in bench_paper measures exactly that.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "predict/estimator.h"
#include "sim/framework.h"

namespace wire::predict {

/// Per-task record of a completed prior run, as harvested from the
/// framework's kickstart archive.
struct HistoryRecord {
  dag::TaskId task = dag::kInvalidTask;
  double exec_seconds = 0.0;
  /// Total transfer (in + out) seconds; negative if not recorded.
  double transfer_seconds = -1.0;
};

/// Converts a completed run's kickstart archive (RunResult::task_records)
/// into history records.
std::vector<HistoryRecord> history_from_records(
    const std::vector<sim::TaskRuntime>& records);

class HistoryEstimator final : public Estimator {
 public:
  /// Builds the per-stage, per-input-size-group medians from a prior run of
  /// the same workflow. `input_bucket_rel_tol` matches TaskPredictor's
  /// grouping so the two estimators see the same equivalence classes.
  HistoryEstimator(const dag::Workflow& workflow,
                   const std::vector<HistoryRecord>& prior_run,
                   double input_bucket_rel_tol = 0.02);

  /// History never learns from the current run.
  void observe(const sim::MonitorSnapshot& snapshot) override;

  double estimate_exec(dag::TaskId task,
                       const sim::MonitorSnapshot& snapshot) const override;

  double predict_remaining_occupancy(
      dag::TaskId task, const sim::MonitorSnapshot& snapshot) const override;

  double transfer_estimate() const override { return transfer_estimate_; }

  std::size_t state_bytes() const override;

 private:
  const dag::Workflow* workflow_;
  double bucket_tol_;
  /// stage -> bucket -> median exec of the prior run's group.
  std::vector<std::map<long, double>> group_median_;
  /// stage -> median exec across the whole stage (bucket-miss fallback).
  std::vector<double> stage_median_;
  double transfer_estimate_ = 0.0;
};

}  // namespace wire::predict
