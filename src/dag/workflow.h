// The workflow DAG model (paper §I, §II-C).
//
// A workflow is a static DAG of tasks. Tasks that share the same executable
// and the same dependent predecessor stages form a *stage*; WIRE's online
// prediction policies operate per stage ("task executions are comparable",
// Observation 3). The DAG here carries the *declared* profile of each task —
// input/output data sizes and a reference execution time. Actual runtimes are
// produced by the ground-truth simulator's variability model (src/sim/), never
// read from the DAG by the controller.
//
// A Workflow is two parts. Its graph — the name, stages, task names,
// dependencies, stage membership, roots, sinks and topological order — is
// immutable and shared: copies of a workflow, and every workflow made from
// it by with_tasks(), point at the same graph. Its TaskSpecs — each task's
// declared numbers — belong to the instance. Many instances of one workflow
// type (an ensemble's tenants, say) thus pay for the graph once.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace wire::dag {

using TaskId = std::uint32_t;
using StageId = std::uint32_t;

inline constexpr TaskId kInvalidTask = std::numeric_limits<TaskId>::max();
inline constexpr StageId kInvalidStage = std::numeric_limits<StageId>::max();

/// Declared (static) description of one task. Its name lives in the graph
/// (Workflow::task_name).
struct TaskSpec {
  TaskId id = kInvalidTask;
  StageId stage = kInvalidStage;
  /// Input data size in MB — the feature of the paper's OGD model (Eq. 1).
  double input_mb = 0.0;
  /// Output data size in MB — drives the successor's transfer-in time.
  double output_mb = 0.0;
  /// Reference execution time (seconds) on a nominal instance. The simulator
  /// perturbs this with skew/interference; the controller never sees it.
  double ref_exec_seconds = 0.0;
  /// Reference peak memory (MB) on a nominal instance. The simulator perturbs
  /// this with per-task noise (MemoryConfig::noise_sigma); the controller
  /// never sees it. 0 = the workload declares no memory profile.
  double ref_peak_mem_mb = 0.0;
};

/// Declared description of one stage (a group of peer tasks).
struct StageSpec {
  StageId id = kInvalidStage;
  std::string name;
  /// Identifier of the shared executable (informational).
  std::string executable;
};

/// Immutable, validated workflow DAG. Construct via WorkflowBuilder.
class Workflow {
 public:
  const std::string& name() const { return graph_->name; }

  std::size_t task_count() const { return tasks_.size(); }
  std::size_t stage_count() const { return graph_->stages.size(); }

  const TaskSpec& task(TaskId id) const;
  const std::string& task_name(TaskId id) const;
  const StageSpec& stage(StageId id) const;

  /// Direct predecessors / successors in dependency order (stable).
  std::span<const TaskId> predecessors(TaskId id) const;
  std::span<const TaskId> successors(TaskId id) const;

  /// Tasks belonging to a stage, in id order.
  std::span<const TaskId> stage_tasks(StageId id) const;

  /// Tasks with no predecessors / no successors.
  std::span<const TaskId> roots() const { return graph_->roots; }
  std::span<const TaskId> sinks() const { return graph_->sinks; }

  /// A valid topological order of all tasks (deterministic: Kahn's algorithm
  /// with a min-id tie break).
  const std::vector<TaskId>& topological_order() const { return graph_->topo; }

  /// Sum of the reference execution times of all tasks (seconds) — the
  /// paper's "aggregate task execution time" column in Table I.
  double aggregate_ref_exec_seconds() const { return aggregate_exec_; }

  /// Sum of declared input sizes of root-stage tasks (MB) — the workload's
  /// external dataset size, Table I's "Data Size" column.
  double input_dataset_mb() const;

  /// All tasks, for iteration.
  std::span<const TaskSpec> tasks() const { return tasks_; }
  std::span<const StageSpec> stages() const { return graph_->stages; }

  /// A workflow on this one's graph (shared, not copied) with `tasks` as its
  /// task numbers. `tasks[i]` must carry id i, the stage of task i and
  /// non-negative numbers, as WorkflowBuilder::add_task requires.
  Workflow with_tasks(std::vector<TaskSpec> tasks) const;

 private:
  friend class WorkflowBuilder;

  /// The seed-independent part, shared by every copy and with_tasks().
  struct Graph {
    std::string name;
    std::vector<StageSpec> stages;
    std::vector<std::string> task_names;
    // CSR-style adjacency (predecessors and successors).
    std::vector<std::uint32_t> pred_offsets, succ_offsets;
    std::vector<TaskId> pred_edges, succ_edges;
    std::vector<std::uint32_t> stage_offsets;
    std::vector<TaskId> stage_members;
    std::vector<TaskId> roots, sinks, topo;
  };

  Workflow(std::shared_ptr<const Graph> graph, std::vector<TaskSpec> tasks);

  std::shared_ptr<const Graph> graph_;
  std::vector<TaskSpec> tasks_;
  double aggregate_exec_ = 0.0;
};

/// Incremental builder; `build()` validates and freezes the DAG.
class WorkflowBuilder {
 public:
  explicit WorkflowBuilder(std::string workflow_name);

  /// Declares a stage; returns its id (ids are dense, in declaration order).
  StageId add_stage(std::string name, std::string executable = {});

  /// Declares a task in `stage` with the given profile and predecessor set.
  /// Predecessors must already have been added (forward declarations would
  /// permit cycles). Returns the new task id.
  TaskId add_task(StageId stage, std::string name, double input_mb,
                  double output_mb, double ref_exec_seconds,
                  std::vector<TaskId> predecessors,
                  double ref_peak_mem_mb = 0.0);

  /// Validates (dependencies exist, stages non-empty, graph is a DAG — the
  /// add-order discipline guarantees acyclicity, revalidated defensively) and
  /// returns the immutable workflow. The builder is left empty.
  Workflow build();

 private:
  std::string name_;
  std::vector<TaskSpec> tasks_;
  std::vector<std::string> task_names_;
  std::vector<StageSpec> stages_;
  std::vector<std::vector<TaskId>> preds_;
};

}  // namespace wire::dag
