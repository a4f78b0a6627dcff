#include "predict/history.h"

#include <algorithm>

#include "predict/input_bucket.h"
#include "util/check.h"
#include "util/stats.h"

namespace wire::predict {

std::vector<HistoryRecord> history_from_records(
    const std::vector<sim::TaskRuntime>& records) {
  std::vector<HistoryRecord> out;
  out.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const sim::TaskRuntime& rec = records[i];
    WIRE_REQUIRE(rec.phase == sim::TaskPhase::Completed,
                 "history requires a completed run");
    HistoryRecord h;
    h.task = static_cast<dag::TaskId>(i);
    h.exec_seconds = rec.exec_time;
    h.transfer_seconds = std::max(0.0, rec.transfer_in_time) +
                         std::max(0.0, rec.transfer_out_time);
    out.push_back(h);
  }
  return out;
}

HistoryEstimator::HistoryEstimator(const dag::Workflow& workflow,
                                   const std::vector<HistoryRecord>& prior_run,
                                   double input_bucket_rel_tol)
    : workflow_(&workflow),
      bucket_tol_(input_bucket_rel_tol),
      group_median_(workflow.stage_count()),
      stage_median_(workflow.stage_count(), 0.0) {
  WIRE_REQUIRE(!prior_run.empty(), "history estimator needs a prior run");

  std::vector<std::map<long, std::vector<double>>> groups(
      workflow.stage_count());
  std::vector<std::vector<double>> per_stage(workflow.stage_count());
  std::vector<double> transfers;
  for (const HistoryRecord& rec : prior_run) {
    WIRE_REQUIRE(rec.task < workflow.task_count(),
                 "history record for unknown task");
    WIRE_REQUIRE(rec.exec_seconds >= 0.0,
                 "history record with negative execution time");
    const dag::TaskSpec& spec = workflow.task(rec.task);
    groups[spec.stage][input_bucket_key(spec.input_mb, bucket_tol_)]
        .push_back(rec.exec_seconds);
    per_stage[spec.stage].push_back(rec.exec_seconds);
    if (rec.transfer_seconds > 0.0) transfers.push_back(rec.transfer_seconds);
  }
  for (dag::StageId s = 0; s < workflow.stage_count(); ++s) {
    for (auto& [key, values] : groups[s]) {
      group_median_[s][key] = util::median(values);
    }
    if (!per_stage[s].empty()) {
      stage_median_[s] = util::median(per_stage[s]);
    }
  }
  if (!transfers.empty()) {
    transfer_estimate_ = util::median(transfers);
  }
}

void HistoryEstimator::observe(const sim::MonitorSnapshot& /*snapshot*/) {
  // By design: Jockey-style predictors are trained offline.
}

double HistoryEstimator::estimate_exec(
    dag::TaskId task, const sim::MonitorSnapshot& /*snapshot*/) const {
  WIRE_REQUIRE(task < workflow_->task_count(), "unknown task id");
  const dag::TaskSpec& spec = workflow_->task(task);
  const auto& buckets = group_median_[spec.stage];
  const auto it = buckets.find(input_bucket_key(spec.input_mb, bucket_tol_));
  if (it != buckets.end()) return it->second;
  return stage_median_[spec.stage];
}

double HistoryEstimator::predict_remaining_occupancy(
    dag::TaskId task, const sim::MonitorSnapshot& snapshot) const {
  const sim::TaskObservation& obs = snapshot.tasks[task];
  if (obs.phase == sim::TaskPhase::Completed) return 0.0;
  const double exec = estimate_exec(task, snapshot);
  if (obs.phase == sim::TaskPhase::Running) {
    if (obs.transfer_in_time < 0.0) {
      return std::max(0.0, transfer_estimate_ - obs.elapsed) + exec;
    }
    return std::max(0.0, exec - obs.elapsed_exec);
  }
  return transfer_estimate_ + exec;
}

std::size_t HistoryEstimator::state_bytes() const {
  std::size_t bytes = sizeof(*this);
  for (const auto& stage : group_median_) {
    bytes += stage.size() * (sizeof(long) + sizeof(double));
  }
  bytes += stage_median_.capacity() * sizeof(double);
  return bytes;
}

}  // namespace wire::predict
