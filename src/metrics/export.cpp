#include "metrics/export.h"

#include <filesystem>
#include <fstream>

#include "util/check.h"
#include "util/csv.h"
#include "util/table.h"

namespace wire::metrics {

void write_gantt_csv(const std::string& path, const dag::Workflow& workflow,
                     const sim::RunResult& result) {
  WIRE_REQUIRE(result.task_records.size() == workflow.task_count(),
               "run result does not match the workflow");
  util::CsvWriter csv(path);
  csv.write_row({"task", "name", "stage", "instance", "occupancy_start",
                 "exec_start", "exec_end", "completed_at", "attempts"});
  for (dag::TaskId t = 0; t < workflow.task_count(); ++t) {
    const sim::TaskRuntime& rec = result.task_records[t];
    WIRE_REQUIRE(rec.phase == sim::TaskPhase::Completed,
                 "gantt export requires a completed run");
    const dag::TaskSpec& spec = workflow.task(t);
    csv.write_row({std::to_string(t), workflow.task_name(t),
                   workflow.stage(spec.stage).name,
                   std::to_string(rec.instance),
                   util::fmt(rec.occupancy_start, 3),
                   util::fmt(rec.exec_start, 3),
                   util::fmt(rec.exec_start + rec.exec_time, 3),
                   util::fmt(rec.completed_at, 3),
                   std::to_string(rec.attempts)});
  }
}

void write_timeline_csv(const std::string& path,
                        const sim::RunResult& result) {
  WIRE_REQUIRE(!result.pool_timeline.empty(),
               "no pool timeline recorded (set record_pool_timeline)");
  util::CsvWriter csv(path);
  csv.write_row({"time", "live_instances", "running_tasks", "ready_tasks"});
  for (const sim::PoolSample& s : result.pool_timeline) {
    csv.write_row({util::fmt(s.time, 1), std::to_string(s.live_instances),
                   std::to_string(s.running_tasks),
                   std::to_string(s.ready_tasks)});
  }
}

void write_summary_csv(const std::string& path, const sim::RunResult& result,
                       bool append) {
  const bool exists =
      append && std::filesystem::exists(path) &&
      std::filesystem::file_size(path) > 0;
  std::ofstream out(path, append ? std::ios::app : std::ios::trunc);
  WIRE_REQUIRE(static_cast<bool>(out), "cannot open " + path);
  if (!exists) {
    out << "policy,makespan_s,cost_units,utilization,peak_instances,"
           "restarts,control_ticks\n";
  }
  out << result.policy_name << ',' << util::fmt(result.makespan, 3) << ','
      << util::fmt(result.cost_units, 3) << ','
      << util::fmt(result.utilization, 4) << ',' << result.peak_instances
      << ',' << result.task_restarts << ',' << result.control_ticks << '\n';
}

}  // namespace wire::metrics
