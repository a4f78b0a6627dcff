// Workflow instantiation: turns declarative profiles into concrete DAGs with
// per-task execution-time skew and input sizes (one template per profile,
// one cheap instance per seed), plus the synthetic families used by the
// simulation studies (linear workflows of §III-E / Figs. 2–3 and random
// layered DAGs for property tests).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dag/workflow.h"
#include "workload/profiles.h"

namespace wire::workload {

/// A Table-I style profile as a workflow type: the seed-independent graph
/// (names, stages, dependencies) is built once, at construction, and makes
/// no RNG draw. instantiate() draws only the task numbers, so every instance
/// shares the template's graph; an instance may outlive its template.
class WorkflowTemplate {
 public:
  explicit WorkflowTemplate(const WorkflowProfile& profile);

  /// The profile's workflow for `seed`. Per stage, quantized block classes
  /// (a standard block, a half block or a multiple: data skew) are assigned
  /// to tasks in stratified counts, shuffled; a task's input size is its
  /// class share of the stage input, and its reference execution time is
  /// the stage mean scaled by the same share and a small lognormal residual
  /// — the intra-stage load skew of Observation 1, with input size a
  /// predictive feature (policies 4 and 5). Peak memory spreads lognormally
  /// around the stage mean from a separate RNG stream. Deterministic in
  /// (profile, seed).
  dag::Workflow instantiate(std::uint64_t seed) const;

 private:
  /// The seed-independent numbers of one stage's draws.
  struct StageDraw {
    std::uint32_t task_count = 0;
    double per_task_mb = 0.0;
    double mean_exec_seconds = 0.0;
    double mean_peak_mem_mb = 0.0;
    /// Mean of the stage's block-class factors.
    double mean_factor = 0.0;
  };

  /// The graph, with every task number zero.
  dag::Workflow shape_;
  std::vector<StageDraw> stages_;
  /// Unshuffled block-class factors, one per task in id order.
  std::vector<double> factors_;
  double exec_residual_sigma_ = 0.0;
  double mem_residual_sigma_ = 0.0;
};

/// WorkflowTemplate(profile).instantiate(seed).
dag::Workflow make_workflow(const WorkflowProfile& profile,
                            std::uint64_t seed);

/// The idealized linear workflow of §III-E: `n_stages` stages of
/// `tasks_per_stage` tasks, every task a predecessor of every task in the
/// next stage, all tasks with identical execution time `exec_seconds` and no
/// data transfer. Used by the Figure 2/3 steering-policy studies.
dag::Workflow linear_workflow(std::uint32_t n_stages,
                              std::uint32_t tasks_per_stage,
                              double exec_seconds,
                              const std::string& name = "linear");

/// Options for random layered DAGs (property tests / fuzzing).
struct RandomDagOptions {
  std::uint32_t min_layers = 2;
  std::uint32_t max_layers = 6;
  std::uint32_t min_width = 1;
  std::uint32_t max_width = 12;
  /// Probability of each additional cross-layer edge beyond the one that
  /// guarantees connectivity.
  double edge_density = 0.3;
  double mean_exec_seconds = 8.0;
  double mean_input_mb = 16.0;
  /// Mean peak memory per task, MB (0 = no memory profile). Drawn from a
  /// separate RNG stream, so setting this never perturbs the exec/input
  /// draws of an existing (options, seed) pair.
  double mean_peak_mem_mb = 0.0;
};

/// Generates a random layered DAG: one stage per layer, every task wired to
/// at least one task of the previous layer. Deterministic in (options, seed).
dag::Workflow random_layered(const RandomDagOptions& options,
                             std::uint64_t seed);

}  // namespace wire::workload
