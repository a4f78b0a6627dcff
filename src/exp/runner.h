// Repetition runner for the experiment matrix: executes (workflow × policy ×
// charging unit) cells with repeated seeds, fanning out across threads.
// Each run is an isolated, single-threaded simulation, so results are
// independent of scheduling and fully reproducible from the base seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/controller.h"
#include "dag/workflow.h"
#include "exp/settings.h"
#include "metrics/report.h"
#include "sim/driver.h"
#include "workload/profiles.h"

namespace wire::exp {

struct MatrixOptions {
  std::vector<PolicyKind> policies = all_policies();
  std::vector<double> charging_units = paper_charging_units();
  /// Repetitions per cell (the paper repeats each run 3–7 times).
  std::uint32_t repetitions = 3;
  std::uint64_t base_seed = 42;
  /// Worker threads for the sweep (0 = hardware concurrency).
  std::size_t threads = 0;
  /// Seed used to instantiate workflow DAGs from profiles (fixed so the
  /// characterization matches Table I across the whole matrix).
  std::uint64_t dag_seed = 7;
  core::WireOptions wire_options;
};

/// One (workflow, policy, charging unit) cell of Figs. 5/6.
struct CellResult {
  std::string workflow;
  PolicyKind policy = PolicyKind::Wire;
  double charging_unit_seconds = 0.0;
  metrics::CellStats stats;
  std::vector<sim::RunResult> runs;
};

/// Runs one cell: `repetitions` seeded runs of `workflow` under `policy` on
/// the §IV-B site with the given charging unit.
CellResult run_cell(const dag::Workflow& workflow, PolicyKind policy,
                    double charging_unit_seconds, const MatrixOptions& options,
                    std::uint64_t cell_stream);

/// Runs the full matrix for the given workload profiles, in parallel.
/// Results are ordered (profile-major, then policy, then charging unit).
std::vector<CellResult> run_matrix(
    const std::vector<workload::WorkflowProfile>& profiles,
    const MatrixOptions& options);

}  // namespace wire::exp
