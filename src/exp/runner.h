// Paired-seed study runner: executes (workload × cloud × variant) cells with
// repeated seeds, fanning out across threads. A run's seed depends only on
// the study's seed root, the workload, the cloud and the repetition, so every
// variant of a cell sees the same ground truth as variant 0 (common random
// numbers) and their difference is a paired comparison. Each run is an
// isolated, single-threaded simulation, so results are independent of
// scheduling and fully reproducible from the seed root.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dag/workflow.h"
#include "exp/settings.h"
#include "metrics/report.h"
#include "sim/driver.h"

namespace wire::exp {

/// One configuration under comparison.
struct Variant {
  std::string label;
  /// Mints a fresh policy for one run (called from worker threads).
  std::function<std::unique_ptr<sim::ScalingPolicy>()> policy;
  /// Adjusts one run's cloud and options before it starts (bootstrap pool,
  /// restart threshold, ...). The seed is set afterwards, so the pairing
  /// with variant 0 holds. Unset: the cell's cloud, one booted instance.
  std::function<void(sim::CloudConfig&, sim::RunOptions&)> configure;
};

/// `kind` with its §IV-C bootstrap pool, labelled policy_label(kind).
Variant policy_variant(PolicyKind kind);

/// One variant run to the other: mean and sample standard deviation of the
/// run-by-run differences, and the half-width of their 95% Student-t
/// interval (infinite with a single repetition).
struct PairedDelta {
  double mean = 0.0;
  double stddev = 0.0;
  double half_width = 0.0;

  double low() const { return mean - half_width; }
  double high() const { return mean + half_width; }
};

/// The paired Δ of a sample of differences (non-empty).
PairedDelta paired_delta(const std::vector<double>& differences);

/// One (workload, cloud, variant) cell.
struct StudyCell {
  std::size_t workload = 0;
  std::size_t cloud = 0;
  std::size_t variant = 0;
  metrics::CellStats stats;
  std::vector<sim::RunResult> runs;
  /// This variant minus variant 0 of the same workload and cloud, paired by
  /// repetition; all zero for variant 0 itself.
  PairedDelta makespan_delta;
  PairedDelta cost_delta;
};

struct Study {
  std::vector<dag::Workflow> workloads;
  std::vector<sim::CloudConfig> clouds;
  std::vector<Variant> variants;
  /// Repetitions per cell (the paper repeats each run 3–7 times).
  std::uint32_t repetitions = 3;
  std::uint64_t seed_root = 42;
  /// Worker threads (0 = hardware concurrency).
  std::size_t threads = 0;

  /// The seed of repetition `rep` of every variant on (workload, cloud).
  std::uint64_t run_seed(std::size_t workload, std::size_t cloud,
                         std::uint32_t rep) const;
  /// Position of a cell in run()'s result.
  std::size_t cell_index(std::size_t workload, std::size_t cloud,
                         std::size_t variant) const;
  /// Runs every cell, in parallel. Cells are ordered workload-major, then
  /// cloud, then variant.
  std::vector<StudyCell> run() const;
};

/// The §IV-C matrix on `workloads`: the paper cloud at each of
/// paper_charging_units() × policy_variant(kind) for all_policies(), in
/// paper order.
Study paper_study(std::vector<dag::Workflow> workloads,
                  std::uint32_t repetitions);

}  // namespace wire::exp
