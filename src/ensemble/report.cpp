#include "ensemble/report.h"

#include <algorithm>
#include <sstream>

#include "util/check.h"
#include "util/table.h"

namespace wire::ensemble {

void EnsembleReport::finalize(double busy_slot_seconds,
                              double allocated_instance_seconds) {
  WIRE_REQUIRE(site_cap > 0 && slots_per_instance > 0,
               "finalize needs the site geometry");
  horizon_seconds = 0.0;
  total_cost_units = 0.0;
  mean_queue_wait_seconds = 0.0;
  mean_slowdown = 0.0;
  max_slowdown = 0.0;
  total_task_faults = 0;
  total_instance_crashes = 0;
  total_quarantined_tasks = 0;
  total_over_budget_units = 0.0;
  jobs_over_budget = 0;
  for (const JobOutcome& j : jobs) {
    horizon_seconds = std::max(horizon_seconds, j.completed_seconds);
    total_cost_units += j.cost_units;
    mean_queue_wait_seconds += j.queue_wait_seconds;
    mean_slowdown += j.slowdown;
    max_slowdown = std::max(max_slowdown, j.slowdown);
    total_task_faults += j.task_faults;
    total_instance_crashes += j.instance_crashes;
    total_quarantined_tasks += j.quarantined_tasks;
    total_over_budget_units += j.over_budget_units;
    if (j.budget_units > 0.0 && j.over_budget_units > 0.0) ++jobs_over_budget;
  }
  if (!jobs.empty()) {
    mean_queue_wait_seconds /= static_cast<double>(jobs.size());
    mean_slowdown /= static_cast<double>(jobs.size());
  }
  if (horizon_seconds > 0.0) {
    const double capacity_slot_seconds =
        static_cast<double>(site_cap) *
        static_cast<double>(slots_per_instance) * horizon_seconds;
    site_utilization = busy_slot_seconds / capacity_slot_seconds;
    allocation_ratio = allocated_instance_seconds /
                       (static_cast<double>(site_cap) * horizon_seconds);
    throughput_jobs_per_hour =
        static_cast<double>(jobs.size()) / horizon_seconds * 3600.0;
  } else {
    site_utilization = 0.0;
    allocation_ratio = 0.0;
    throughput_jobs_per_hour = 0.0;
  }
}

std::string EnsembleReport::render() const {
  util::TextTable table;
  table.set_header({"job", "workflow", "arrival", "wait", "makespan",
                    "dedicated", "slowdown", "cost", "peak", "restarts",
                    "faults", "crashes", "quar"});
  for (const JobOutcome& j : jobs) {
    table.add_row({std::to_string(j.job), j.workflow_name,
                   util::fmt(j.arrival_seconds, 1),
                   util::fmt(j.queue_wait_seconds, 1),
                   util::fmt(j.makespan_seconds, 1),
                   util::fmt(j.dedicated_makespan_seconds, 1),
                   util::fmt(j.slowdown, 3), util::fmt(j.cost_units, 2),
                   std::to_string(j.peak_instances),
                   std::to_string(j.task_restarts),
                   std::to_string(j.task_faults),
                   std::to_string(j.instance_crashes),
                   std::to_string(j.quarantined_tasks)});
  }
  std::ostringstream out;
  out << "ensemble: policy=" << tenant_policy
      << " arbiter=" << arbiter_strategy << " site_cap=" << site_cap
      << " jobs=" << jobs.size() << "\n";
  out << table.render();
  out << "horizon " << util::fmt(horizon_seconds, 1) << " s, total cost "
      << util::fmt(total_cost_units, 2) << " units, site utilization "
      << util::fmt(site_utilization, 4) << ", allocation ratio "
      << util::fmt(allocation_ratio, 4) << ", throughput "
      << util::fmt(throughput_jobs_per_hour, 3) << " jobs/h, mean wait "
      << util::fmt(mean_queue_wait_seconds, 1) << " s, slowdown mean "
      << util::fmt(mean_slowdown, 3) << " / max "
      << util::fmt(max_slowdown, 3) << "\n";
  if (total_task_faults > 0 || total_instance_crashes > 0 ||
      total_quarantined_tasks > 0) {
    out << "faults: task faults " << total_task_faults
        << ", instance crashes " << total_instance_crashes
        << ", quarantined tasks " << total_quarantined_tasks << "\n";
  }
  // Conditional like the fault line: unbudgeted runs keep the historical
  // bytes (the budget-off identity contract).
  bool budgeted = false;
  for (const JobOutcome& j : jobs) budgeted = budgeted || j.budget_units > 0.0;
  if (budgeted) {
    out << "budget: " << jobs_over_budget << "/" << jobs.size()
        << " jobs over budget, total overrun "
        << util::fmt(total_over_budget_units, 2) << " units\n";
  }
  return out.str();
}

}  // namespace wire::ensemble
