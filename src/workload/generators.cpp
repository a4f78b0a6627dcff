#include "workload/generators.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace wire::workload {

namespace {

using dag::StageId;
using dag::TaskId;
using dag::WorkflowBuilder;

/// Lognormal skew factor with unit mean (so stage means are preserved).
double unit_mean_lognormal(util::Rng& rng, double sigma) {
  if (sigma <= 0.0) return 1.0;
  return rng.lognormal_median(1.0, sigma) / std::exp(0.5 * sigma * sigma);
}

/// Stream index separating the peak-memory draws from the exec/skew stream,
/// so a workflow's execution times and input sizes are byte-identical whether
/// or not its profile declares memory footprints.
constexpr std::uint64_t kMemoryStream = 0x3E35EEDu;

/// Predecessors of task `index` (0-based within its stage) given the link
/// pattern and the previous stage's task ids.
std::vector<TaskId> link_predecessors(StageLink link,
                                      std::uint32_t index,
                                      const std::vector<TaskId>& prev) {
  switch (link) {
    case StageLink::Source:
      return {};
    case StageLink::AllToAll:
      return prev;
    case StageLink::Partition:
    case StageLink::FanOut:
      // Both pick one upstream producer round-robin; FanOut is the 1->N
      // special case (prev.size() == 1) named for intent.
      WIRE_CHECK(!prev.empty(), "non-source stage without predecessors");
      return {prev[index % prev.size()]};
  }
  return {};
}

/// Appends a stage's quantized block classes in their stratified counts,
/// unshuffled: most tasks process a standard block; skewed tasks get a half
/// block or a multiple (data skew). The counts are the largest-remainder
/// rounding of the class proportions, so the stage's realized input volume
/// and mean execution time track the profile targets even for narrow
/// stages.
void append_class_factors(double p_skew, std::uint32_t task_count,
                          std::vector<double>& out) {
  const double factors[4] = {0.5, 1.0, 2.0, 4.0};
  const double probs[4] = {p_skew * 0.5, 1.0 - p_skew, p_skew * 0.35,
                           p_skew * 0.15};
  std::uint32_t assigned = 0;
  std::uint32_t counts[4];
  double remainders[4];
  for (int k = 0; k < 4; ++k) {
    const double exact = probs[k] * task_count;
    counts[k] = static_cast<std::uint32_t>(exact);
    remainders[k] = exact - counts[k];
    assigned += counts[k];
  }
  while (assigned < task_count) {
    int best = 0;
    for (int k = 1; k < 4; ++k) {
      if (remainders[k] > remainders[best]) best = k;
    }
    ++counts[best];
    remainders[best] = -1.0;
    ++assigned;
  }
  for (int k = 0; k < 4; ++k) out.insert(out.end(), counts[k], factors[k]);
}

/// The profile's graph: every task number zero, no RNG draw.
dag::Workflow build_shape(const WorkflowProfile& profile) {
  WIRE_REQUIRE(!profile.stages.empty(), "profile has no stages");
  WorkflowBuilder builder(profile.name);
  std::vector<TaskId> prev_stage_tasks;
  for (std::size_t si = 0; si < profile.stages.size(); ++si) {
    const StageProfile& sp = profile.stages[si];
    WIRE_REQUIRE(sp.task_count > 0, "stage with zero tasks");
    WIRE_REQUIRE(si > 0 || sp.link == StageLink::Source,
                 "first stage must be a Source");
    WIRE_REQUIRE(si == 0 || sp.link != StageLink::Source,
                 "only the first stage may be a Source");
    const StageId stage = builder.add_stage(sp.name, sp.name + ".exe");
    std::vector<TaskId> current;
    current.reserve(sp.task_count);
    for (std::uint32_t i = 0; i < sp.task_count; ++i) {
      current.push_back(builder.add_task(
          stage, sp.name + "_" + std::to_string(i), 0.0, 0.0, 0.0,
          link_predecessors(sp.link, i, prev_stage_tasks)));
    }
    prev_stage_tasks = std::move(current);
  }
  return builder.build();
}

}  // namespace

WorkflowTemplate::WorkflowTemplate(const WorkflowProfile& profile)
    : shape_(build_shape(profile)),
      exec_residual_sigma_(profile.exec_residual_sigma),
      mem_residual_sigma_(profile.mem_residual_sigma) {
  stages_.reserve(profile.stages.size());
  factors_.reserve(shape_.task_count());
  for (const StageProfile& sp : profile.stages) {
    const std::size_t first = factors_.size();
    append_class_factors(profile.skew_class_probability, sp.task_count,
                         factors_);
    // The factors are multiples of 0.5, so their sum is exact in any order:
    // the mean over the shuffled stage equals this one bit for bit.
    double mean_factor = 0.0;
    for (std::size_t i = first; i < factors_.size(); ++i) {
      mean_factor += factors_[i];
    }
    mean_factor /= static_cast<double>(sp.task_count);
    stages_.push_back(StageDraw{
        sp.task_count, sp.stage_input_mb / static_cast<double>(sp.task_count),
        sp.mean_exec_seconds, sp.mean_peak_mem_mb, mean_factor});
  }
}

dag::Workflow WorkflowTemplate::instantiate(std::uint64_t seed) const {
  util::Rng rng(seed);
  util::Rng mem_rng(util::derive_seed(seed, kMemoryStream));
  std::vector<dag::TaskSpec> tasks(shape_.tasks().begin(),
                                   shape_.tasks().end());
  std::vector<double> factor = factors_;
  std::size_t first = 0;
  for (const StageDraw& sd : stages_) {
    const std::size_t end = first + sd.task_count;
    std::shuffle(factor.begin() + static_cast<std::ptrdiff_t>(first),
                 factor.begin() + static_cast<std::ptrdiff_t>(end),
                 rng.engine());
    for (std::size_t i = first; i < end; ++i) {
      dag::TaskSpec& t = tasks[i];
      const double rel = factor[i] / sd.mean_factor;
      t.input_mb = std::max(1e-4, sd.per_task_mb * rel);
      // Execution time is proportional to the input size up to a small
      // residual — what makes peers with equivalent input sizes predictive
      // of each other (policy 4) and the input-size feature linear
      // (policy 5).
      t.ref_exec_seconds =
          std::max(0.3, sd.mean_exec_seconds * rel *
                            unit_mean_lognormal(rng, exec_residual_sigma_));
      t.output_mb = t.input_mb * 0.5;
      // Peak memory spreads lognormally around the stage mean (per-stage
      // spread like exec times, Observation 3 applied to the memory
      // dimension) from a decoupled stream.
      t.ref_peak_mem_mb =
          sd.mean_peak_mem_mb > 0.0
              ? std::max(16.0,
                         sd.mean_peak_mem_mb *
                             unit_mean_lognormal(mem_rng, mem_residual_sigma_))
              : 0.0;
    }
    first = end;
  }
  return shape_.with_tasks(std::move(tasks));
}

dag::Workflow make_workflow(const WorkflowProfile& profile,
                            std::uint64_t seed) {
  return WorkflowTemplate(profile).instantiate(seed);
}

dag::Workflow linear_workflow(std::uint32_t n_stages,
                              std::uint32_t tasks_per_stage,
                              double exec_seconds, const std::string& name) {
  WIRE_REQUIRE(n_stages > 0, "linear workflow needs at least one stage");
  WIRE_REQUIRE(tasks_per_stage > 0, "linear workflow needs tasks");
  WIRE_REQUIRE(exec_seconds > 0.0, "task run time must be positive");
  WorkflowBuilder builder(name);
  std::vector<TaskId> prev;
  for (std::uint32_t s = 0; s < n_stages; ++s) {
    const StageId stage = builder.add_stage("stage" + std::to_string(s));
    std::vector<TaskId> current;
    current.reserve(tasks_per_stage);
    for (std::uint32_t i = 0; i < tasks_per_stage; ++i) {
      current.push_back(builder.add_task(
          stage, "t" + std::to_string(s) + "_" + std::to_string(i),
          /*input_mb=*/0.0, /*output_mb=*/0.0, exec_seconds, prev));
    }
    prev = std::move(current);
  }
  return builder.build();
}

dag::Workflow random_layered(const RandomDagOptions& options,
                             std::uint64_t seed) {
  WIRE_REQUIRE(options.min_layers >= 1, "need at least one layer");
  WIRE_REQUIRE(options.min_layers <= options.max_layers, "layer range inverted");
  WIRE_REQUIRE(options.min_width >= 1, "need width >= 1");
  WIRE_REQUIRE(options.min_width <= options.max_width, "width range inverted");
  util::Rng rng(seed);
  util::Rng mem_rng(util::derive_seed(seed, kMemoryStream));
  WorkflowBuilder builder("random_layered_" + std::to_string(seed));

  const std::uint32_t layers = static_cast<std::uint32_t>(
      rng.uniform_int(options.min_layers, options.max_layers));
  std::vector<TaskId> prev;
  for (std::uint32_t layer = 0; layer < layers; ++layer) {
    const StageId stage = builder.add_stage("layer" + std::to_string(layer));
    const std::uint32_t width = static_cast<std::uint32_t>(
        rng.uniform_int(options.min_width, options.max_width));
    std::vector<TaskId> current;
    current.reserve(width);
    for (std::uint32_t i = 0; i < width; ++i) {
      std::vector<TaskId> preds;
      if (!prev.empty()) {
        // Guarantee connectivity with one mandatory predecessor, then add
        // extras with the configured density.
        preds.push_back(prev[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(prev.size()) - 1))]);
        for (TaskId cand : prev) {
          if (cand != preds.front() && rng.bernoulli(options.edge_density)) {
            preds.push_back(cand);
          }
        }
      }
      const double exec =
          std::max(0.3, rng.lognormal_median(options.mean_exec_seconds, 0.4));
      const double input =
          std::max(0.01, rng.lognormal_median(options.mean_input_mb, 0.4));
      const double peak_mem =
          options.mean_peak_mem_mb > 0.0
              ? std::max(16.0, mem_rng.lognormal_median(
                                   options.mean_peak_mem_mb, 0.4))
              : 0.0;
      current.push_back(builder.add_task(
          stage, "r" + std::to_string(layer) + "_" + std::to_string(i), input,
          input * 0.5, exec, std::move(preds), peak_mem));
    }
    prev = std::move(current);
  }
  return builder.build();
}

}  // namespace wire::workload
