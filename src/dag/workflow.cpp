#include "dag/workflow.h"

#include <algorithm>
#include <queue>

#include "util/check.h"

namespace wire::dag {

namespace {

void require_numbers(double input_mb, double output_mb,
                     double ref_exec_seconds, double ref_peak_mem_mb) {
  WIRE_REQUIRE(input_mb >= 0.0, "negative input size");
  WIRE_REQUIRE(output_mb >= 0.0, "negative output size");
  WIRE_REQUIRE(ref_exec_seconds >= 0.0, "negative execution time");
  WIRE_REQUIRE(ref_peak_mem_mb >= 0.0, "negative peak memory");
}

}  // namespace

Workflow::Workflow(std::shared_ptr<const Graph> graph,
                   std::vector<TaskSpec> tasks)
    : graph_(std::move(graph)), tasks_(std::move(tasks)) {
  for (const TaskSpec& t : tasks_) aggregate_exec_ += t.ref_exec_seconds;
}

Workflow Workflow::with_tasks(std::vector<TaskSpec> tasks) const {
  WIRE_REQUIRE(tasks.size() == tasks_.size(), "task count differs");
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const TaskSpec& t = tasks[i];
    WIRE_REQUIRE(t.id == i, "task ids must be dense, in order");
    WIRE_REQUIRE(t.stage == tasks_[i].stage, "task moved to another stage");
    require_numbers(t.input_mb, t.output_mb, t.ref_exec_seconds,
                    t.ref_peak_mem_mb);
  }
  return Workflow(graph_, std::move(tasks));
}

const TaskSpec& Workflow::task(TaskId id) const {
  WIRE_REQUIRE(id < tasks_.size(), "task id out of range");
  return tasks_[id];
}

const std::string& Workflow::task_name(TaskId id) const {
  WIRE_REQUIRE(id < tasks_.size(), "task id out of range");
  return graph_->task_names[id];
}

const StageSpec& Workflow::stage(StageId id) const {
  WIRE_REQUIRE(id < graph_->stages.size(), "stage id out of range");
  return graph_->stages[id];
}

std::span<const TaskId> Workflow::predecessors(TaskId id) const {
  WIRE_REQUIRE(id < tasks_.size(), "task id out of range");
  const Graph& g = *graph_;
  return {g.pred_edges.data() + g.pred_offsets[id],
          g.pred_offsets[id + 1] - g.pred_offsets[id]};
}

std::span<const TaskId> Workflow::successors(TaskId id) const {
  WIRE_REQUIRE(id < tasks_.size(), "task id out of range");
  const Graph& g = *graph_;
  return {g.succ_edges.data() + g.succ_offsets[id],
          g.succ_offsets[id + 1] - g.succ_offsets[id]};
}

std::span<const TaskId> Workflow::stage_tasks(StageId id) const {
  WIRE_REQUIRE(id < graph_->stages.size(), "stage id out of range");
  const Graph& g = *graph_;
  return {g.stage_members.data() + g.stage_offsets[id],
          g.stage_offsets[id + 1] - g.stage_offsets[id]};
}

double Workflow::input_dataset_mb() const {
  double total = 0.0;
  for (TaskId root : graph_->roots) total += tasks_[root].input_mb;
  return total;
}

WorkflowBuilder::WorkflowBuilder(std::string workflow_name)
    : name_(std::move(workflow_name)) {}

StageId WorkflowBuilder::add_stage(std::string name, std::string executable) {
  StageSpec spec;
  spec.id = static_cast<StageId>(stages_.size());
  spec.name = std::move(name);
  spec.executable = std::move(executable);
  stages_.push_back(std::move(spec));
  return stages_.back().id;
}

TaskId WorkflowBuilder::add_task(StageId stage, std::string name,
                                 double input_mb, double output_mb,
                                 double ref_exec_seconds,
                                 std::vector<TaskId> predecessors,
                                 double ref_peak_mem_mb) {
  WIRE_REQUIRE(stage < stages_.size(), "unknown stage id");
  require_numbers(input_mb, output_mb, ref_exec_seconds, ref_peak_mem_mb);
  const TaskId id = static_cast<TaskId>(tasks_.size());
  for (TaskId pred : predecessors) {
    WIRE_REQUIRE(pred < id, "predecessor must be added before its successor");
  }
  std::sort(predecessors.begin(), predecessors.end());
  predecessors.erase(
      std::unique(predecessors.begin(), predecessors.end()),
      predecessors.end());

  TaskSpec spec;
  spec.id = id;
  spec.stage = stage;
  spec.input_mb = input_mb;
  spec.output_mb = output_mb;
  spec.ref_exec_seconds = ref_exec_seconds;
  spec.ref_peak_mem_mb = ref_peak_mem_mb;
  tasks_.push_back(spec);
  task_names_.push_back(std::move(name));
  preds_.push_back(std::move(predecessors));
  return id;
}

Workflow WorkflowBuilder::build() {
  WIRE_REQUIRE(!tasks_.empty(), "workflow has no tasks");
  for (const StageSpec& s : stages_) {
    bool used = false;
    for (const TaskSpec& t : tasks_) {
      if (t.stage == s.id) {
        used = true;
        break;
      }
    }
    WIRE_REQUIRE(used, "stage '" + s.name + "' has no tasks");
  }

  auto g = std::make_shared<Workflow::Graph>();
  g->name = std::move(name_);
  g->stages = std::move(stages_);
  g->task_names = std::move(task_names_);
  const std::size_t n = tasks_.size();

  // Predecessor CSR.
  g->pred_offsets.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    g->pred_offsets[i + 1] =
        g->pred_offsets[i] + static_cast<std::uint32_t>(preds_[i].size());
  }
  g->pred_edges.reserve(g->pred_offsets[n]);
  for (const auto& p : preds_) {
    g->pred_edges.insert(g->pred_edges.end(), p.begin(), p.end());
  }

  // Successor CSR (transpose).
  std::vector<std::uint32_t> out_degree(n, 0);
  for (const auto& p : preds_) {
    for (TaskId pred : p) ++out_degree[pred];
  }
  g->succ_offsets.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    g->succ_offsets[i + 1] = g->succ_offsets[i] + out_degree[i];
  }
  g->succ_edges.assign(g->succ_offsets[n], kInvalidTask);
  {
    std::vector<std::uint32_t> cursor(g->succ_offsets.begin(),
                                      g->succ_offsets.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      for (TaskId pred : preds_[i]) {
        g->succ_edges[cursor[pred]++] = static_cast<TaskId>(i);
      }
    }
  }

  // Stage membership CSR (task ids are already in id order per stage).
  const std::size_t s = g->stages.size();
  std::vector<std::uint32_t> stage_size(s, 0);
  for (const TaskSpec& t : tasks_) ++stage_size[t.stage];
  g->stage_offsets.assign(s + 1, 0);
  for (std::size_t i = 0; i < s; ++i) {
    g->stage_offsets[i + 1] = g->stage_offsets[i] + stage_size[i];
  }
  g->stage_members.assign(g->stage_offsets[s], kInvalidTask);
  {
    std::vector<std::uint32_t> cursor(g->stage_offsets.begin(),
                                      g->stage_offsets.end() - 1);
    for (const TaskSpec& t : tasks_) {
      g->stage_members[cursor[t.stage]++] = t.id;
    }
  }

  // Roots and sinks.
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<TaskId>(i);
    if (g->pred_offsets[i + 1] == g->pred_offsets[i]) g->roots.push_back(id);
    if (g->succ_offsets[i + 1] == g->succ_offsets[i]) g->sinks.push_back(id);
  }

  // Topological order via Kahn's algorithm with a min-id heap; also the
  // defensive acyclicity check (the builder discipline already prevents
  // cycles, but serialization paths reuse this).
  std::vector<std::uint32_t> in_degree(n);
  for (std::size_t i = 0; i < n; ++i) {
    in_degree[i] = g->pred_offsets[i + 1] - g->pred_offsets[i];
  }
  std::priority_queue<TaskId, std::vector<TaskId>, std::greater<TaskId>> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (in_degree[i] == 0) ready.push(static_cast<TaskId>(i));
  }
  g->topo.reserve(n);
  while (!ready.empty()) {
    const TaskId t = ready.top();
    ready.pop();
    g->topo.push_back(t);
    for (std::uint32_t e = g->succ_offsets[t]; e < g->succ_offsets[t + 1];
         ++e) {
      const TaskId succ = g->succ_edges[e];
      if (--in_degree[succ] == 0) ready.push(succ);
    }
  }
  WIRE_CHECK(g->topo.size() == n, "workflow graph contains a cycle");

  preds_.clear();
  return Workflow(std::move(g), std::move(tasks_));
}

}  // namespace wire::dag
