// Run-artifact exporters: Gantt charts and pool timelines as CSV, for
// plotting outside the library (gnuplot / pandas / spreadsheets).
#pragma once

#include <string>

#include "dag/workflow.h"
#include "sim/driver.h"

namespace wire::metrics {

/// Writes one row per task: id, name, stage, instance, occupancy start,
/// transfer-in end, execution end, completion — the columns of a Gantt
/// chart. Requires a completed run (all task records Completed).
void write_gantt_csv(const std::string& path, const dag::Workflow& workflow,
                     const sim::RunResult& result);

/// Writes the pool timeline (one row per MAPE tick: time, live instances,
/// running tasks, ready tasks). Requires RunOptions::record_pool_timeline to
/// have been set for the run.
void write_timeline_csv(const std::string& path,
                        const sim::RunResult& result);

/// Writes a one-row run summary (policy, makespan, cost, utilization, peak,
/// restarts) with a header; appends if the file already has content when
/// `append` is true.
void write_summary_csv(const std::string& path, const sim::RunResult& result,
                       bool append = false);

}  // namespace wire::metrics
