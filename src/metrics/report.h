// Metric aggregation over repeated runs, matching the paper's reporting:
// resource cost in charging units (Fig. 5, mean ± std), execution time
// normalized to the best setting (Fig. 6), utilization, and the §IV-D
// prediction-error definitions.
#pragma once

#include <string>
#include <vector>

#include "sim/driver.h"
#include "util/stats.h"

namespace wire::metrics {

/// Aggregate of one experiment cell (same workflow, policy, charging unit)
/// across repetitions.
struct CellStats {
  util::RunningStats cost_units;
  util::RunningStats makespan_seconds;
  util::RunningStats utilization;
  util::RunningStats peak_instances;
  util::RunningStats restarts;

  void add(const sim::RunResult& result);
  std::size_t runs() const { return cost_units.count(); }
};

/// Aggregate of one ensemble experiment cell (same arrival stream, arbiter
/// strategy, tenant policy) across the jobs of the stream: per-job slowdown
/// vs the dedicated-site makespan, queue wait, and billed cost — the
/// multi-tenant counterparts of CellStats' per-run metrics.
struct EnsembleCellStats {
  util::RunningStats slowdown;
  util::RunningStats queue_wait_seconds;
  util::RunningStats cost_units;

  void add(double job_slowdown, double job_queue_wait, double job_cost);
};

/// §IV-D error definitions: for a task with actual execution time t and
/// estimate t', the true error is t' - t and the relative true error is
/// (t' - t)/t.
double true_error(double estimate, double actual);
double relative_true_error(double estimate, double actual);

}  // namespace wire::metrics
