// Reference workflow instantiation: one WorkflowBuilder pass per seed,
// exactly as make_workflow built every instance before the template shared
// the graph. Kept test-only as the oracle the template's differential test
// compares against; never linked into src/.
#include "oracle/workflow_oracle.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace wire::workload::oracle {

namespace {

using dag::StageId;
using dag::TaskId;

double unit_mean_lognormal(util::Rng& rng, double sigma) {
  if (sigma <= 0.0) return 1.0;
  return rng.lognormal_median(1.0, sigma) / std::exp(0.5 * sigma * sigma);
}

constexpr std::uint64_t kMemoryStream = 0x3E35EEDu;

std::vector<TaskId> link_predecessors(StageLink link, std::uint32_t index,
                                      const std::vector<TaskId>& prev) {
  switch (link) {
    case StageLink::Source:
      return {};
    case StageLink::AllToAll:
      return prev;
    case StageLink::Partition:
    case StageLink::FanOut:
      WIRE_CHECK(!prev.empty(), "non-source stage without predecessors");
      return {prev[index % prev.size()]};
  }
  return {};
}

}  // namespace

dag::Workflow make_workflow(const WorkflowProfile& profile,
                            std::uint64_t seed) {
  WIRE_REQUIRE(!profile.stages.empty(), "profile has no stages");
  util::Rng rng(seed);
  util::Rng mem_rng(util::derive_seed(seed, kMemoryStream));
  dag::WorkflowBuilder builder(profile.name);

  std::vector<TaskId> prev_stage_tasks;
  for (std::size_t si = 0; si < profile.stages.size(); ++si) {
    const StageProfile& sp = profile.stages[si];
    WIRE_REQUIRE(sp.task_count > 0, "stage with zero tasks");
    WIRE_REQUIRE(si > 0 || sp.link == StageLink::Source,
                 "first stage must be a Source");
    WIRE_REQUIRE(si == 0 || sp.link != StageLink::Source,
                 "only the first stage may be a Source");

    const StageId stage = builder.add_stage(sp.name, sp.name + ".exe");
    const double per_task_mb =
        sp.stage_input_mb / static_cast<double>(sp.task_count);

    const double p_skew = profile.skew_class_probability;
    const double factors[4] = {0.5, 1.0, 2.0, 4.0};
    const double probs[4] = {p_skew * 0.5, 1.0 - p_skew, p_skew * 0.35,
                             p_skew * 0.15};
    std::vector<double> task_factor;
    task_factor.reserve(sp.task_count);
    {
      std::uint32_t assigned = 0;
      std::uint32_t counts[4];
      double remainders[4];
      for (int k = 0; k < 4; ++k) {
        const double exact = probs[k] * sp.task_count;
        counts[k] = static_cast<std::uint32_t>(exact);
        remainders[k] = exact - counts[k];
        assigned += counts[k];
      }
      while (assigned < sp.task_count) {
        int best = 0;
        for (int k = 1; k < 4; ++k) {
          if (remainders[k] > remainders[best]) best = k;
        }
        ++counts[best];
        remainders[best] = -1.0;
        ++assigned;
      }
      for (int k = 0; k < 4; ++k) {
        task_factor.insert(task_factor.end(), counts[k], factors[k]);
      }
      std::shuffle(task_factor.begin(), task_factor.end(), rng.engine());
    }
    double mean_factor = 0.0;
    for (double f : task_factor) mean_factor += f;
    mean_factor /= static_cast<double>(sp.task_count);

    std::vector<TaskId> current;
    current.reserve(sp.task_count);
    for (std::uint32_t i = 0; i < sp.task_count; ++i) {
      const double rel = task_factor[i] / mean_factor;
      const double input_mb = std::max(1e-4, per_task_mb * rel);
      const double exec = std::max(
          0.3, sp.mean_exec_seconds * rel *
                   unit_mean_lognormal(rng, profile.exec_residual_sigma));
      const double output_mb = input_mb * 0.5;
      const double peak_mem =
          sp.mean_peak_mem_mb > 0.0
              ? std::max(16.0, sp.mean_peak_mem_mb *
                                   unit_mean_lognormal(
                                       mem_rng, profile.mem_residual_sigma))
              : 0.0;
      current.push_back(builder.add_task(
          stage, sp.name + "_" + std::to_string(i), input_mb, output_mb, exec,
          link_predecessors(sp.link, i, prev_stage_tasks), peak_mem));
    }
    prev_stage_tasks = std::move(current);
  }
  return builder.build();
}

}  // namespace wire::workload::oracle
