#include "metrics/report.h"

#include <algorithm>

#include "util/check.h"

namespace wire::metrics {

void CellStats::add(const sim::RunResult& result) {
  cost_units.add(result.cost_units);
  makespan_seconds.add(result.makespan);
  utilization.add(result.utilization);
  peak_instances.add(static_cast<double>(result.peak_instances));
  restarts.add(static_cast<double>(result.task_restarts));
}

void EnsembleCellStats::add(double job_slowdown, double job_queue_wait,
                            double job_cost) {
  slowdown.add(job_slowdown);
  queue_wait_seconds.add(job_queue_wait);
  cost_units.add(job_cost);
}

double true_error(double estimate, double actual) { return estimate - actual; }

double relative_true_error(double estimate, double actual) {
  WIRE_REQUIRE(actual > 0.0, "relative error needs a positive actual time");
  return (estimate - actual) / actual;
}

}  // namespace wire::metrics
