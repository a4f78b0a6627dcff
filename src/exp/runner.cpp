#include "exp/runner.h"

#include <cmath>
#include <iterator>
#include <limits>
#include <utility>

#include "util/check.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace wire::exp {

namespace {

/// t_{0.975, df}: the two-sided 95% Student-t quantile.
double t_quantile_975(std::size_t df) {
  static constexpr double kTable[] = {
      12.7062, 4.3027, 3.1824, 2.7764, 2.5706, 2.4469, 2.3646, 2.3060,
      2.2622,  2.2281, 2.2010, 2.1788, 2.1604, 2.1448, 2.1314, 2.1199,
      2.1098,  2.1009, 2.0930, 2.0860, 2.0796, 2.0739, 2.0687, 2.0639,
      2.0595,  2.0555, 2.0518, 2.0484, 2.0452, 2.0423};
  if (df <= std::size(kTable)) return kTable[df - 1];
  // Cornish-Fisher expansion around the normal quantile (error < 1e-4).
  const double z = 1.959964, n = static_cast<double>(df);
  return z + (z * z * z + z) / (4.0 * n) +
         (5.0 * std::pow(z, 5) + 16.0 * z * z * z + 3.0 * z) / (96.0 * n * n);
}

}  // namespace

Variant policy_variant(PolicyKind kind) {
  return {policy_label(kind), [kind] { return make_policy(kind); },
          [kind](sim::CloudConfig& cloud, sim::RunOptions& options) {
            options.initial_instances = initial_instances(kind, cloud);
          }};
}

Study paper_study(std::vector<dag::Workflow> workloads,
                  std::uint32_t repetitions) {
  Study study;
  study.workloads = std::move(workloads);
  for (double u : paper_charging_units()) {
    study.clouds.push_back(paper_cloud(u));
  }
  for (PolicyKind kind : all_policies()) {
    study.variants.push_back(policy_variant(kind));
  }
  study.repetitions = repetitions;
  return study;
}

PairedDelta paired_delta(const std::vector<double>& differences) {
  PairedDelta delta;
  delta.mean = util::mean(differences);
  const double n = static_cast<double>(differences.size());
  if (differences.size() < 2) {
    delta.half_width = std::numeric_limits<double>::infinity();
    return delta;
  }
  delta.stddev = util::stddev(differences) * std::sqrt(n / (n - 1.0));
  delta.half_width =
      t_quantile_975(differences.size() - 1) * delta.stddev / std::sqrt(n);
  return delta;
}

std::uint64_t Study::run_seed(std::size_t workload, std::size_t cloud,
                              std::uint32_t rep) const {
  return util::derive_seed(
      util::derive_seed(seed_root, workload * clouds.size() + cloud), rep);
}

std::size_t Study::cell_index(std::size_t workload, std::size_t cloud,
                              std::size_t variant) const {
  return (workload * clouds.size() + cloud) * variants.size() + variant;
}

std::vector<StudyCell> Study::run() const {
  WIRE_REQUIRE(!variants.empty() && repetitions > 0,
               "a study needs a variant and a repetition");
  std::vector<StudyCell> cells(workloads.size() * clouds.size() *
                               variants.size());
  util::parallel_for(
      cells.size(),
      [&](std::size_t i) {
        StudyCell& cell = cells[i];
        cell.variant = i % variants.size();
        cell.cloud = i / variants.size() % clouds.size();
        cell.workload = i / variants.size() / clouds.size();
        const Variant& variant = variants[cell.variant];
        for (std::uint32_t rep = 0; rep < repetitions; ++rep) {
          sim::CloudConfig cloud = clouds[cell.cloud];
          sim::RunOptions options;
          if (variant.configure) variant.configure(cloud, options);
          options.seed = run_seed(cell.workload, cell.cloud, rep);
          const auto policy = variant.policy();
          sim::RunResult result =
              sim::simulate(workloads[cell.workload], *policy, cloud, options);
          cell.stats.add(result);
          cell.runs.push_back(std::move(result));
        }
      },
      threads);

  for (StudyCell& cell : cells) {
    if (cell.variant == 0) continue;
    const StudyCell& base = cells[cell_index(cell.workload, cell.cloud, 0)];
    std::vector<double> makespan, cost;
    for (std::size_t r = 0; r < cell.runs.size(); ++r) {
      makespan.push_back(cell.runs[r].makespan - base.runs[r].makespan);
      cost.push_back(cell.runs[r].cost_units - base.runs[r].cost_units);
    }
    cell.makespan_delta = paired_delta(makespan);
    cell.cost_delta = paired_delta(cost);
  }
  return cells;
}

}  // namespace wire::exp
