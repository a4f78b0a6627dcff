#include "dag/clustering.h"

#include <algorithm>
#include <string>

#include "dag/analysis.h"
#include "util/check.h"

namespace wire::dag {

ClusteredWorkflow cluster_horizontal(const Workflow& workflow,
                                     const ClusterOptions& options) {
  WIRE_REQUIRE(options.factor >= 1, "cluster factor must be >= 1");
  // Layered stages guarantee that grouping within a stage cannot create a
  // cycle (every predecessor lives in a lower stage).
  WIRE_REQUIRE(stages_are_layered(workflow),
               "horizontal clustering requires layered stages");

  WorkflowBuilder builder(workflow.name() + "-clustered");
  std::vector<TaskId> mapping(workflow.task_count(), kInvalidTask);
  std::uint32_t merged = 0;

  for (const StageSpec& stage : workflow.stages()) {
    const StageId new_stage =
        builder.add_stage(stage.name, stage.executable);
    const auto members = workflow.stage_tasks(stage.id);
    const std::uint32_t factor =
        members.size() < options.min_stage_tasks ? 1 : options.factor;

    for (std::size_t start = 0; start < members.size(); start += factor) {
      const std::size_t end = std::min(members.size(), start + factor);
      double exec = 0.0, input = 0.0, output = 0.0;
      std::vector<TaskId> preds;
      for (std::size_t i = start; i < end; ++i) {
        const TaskSpec& spec = workflow.task(members[i]);
        exec += spec.ref_exec_seconds;
        input += spec.input_mb;
        output += spec.output_mb;
        for (TaskId pred : workflow.predecessors(members[i])) {
          WIRE_CHECK(mapping[pred] != kInvalidTask,
                     "predecessor not yet clustered");
          preds.push_back(mapping[pred]);
        }
      }
      std::string name;
      if (end - start == 1) {
        name = workflow.task_name(members[start]);
      } else {
        name = "cluster_" + stage.name + "_" + std::to_string(start / factor);
        ++merged;
      }
      const TaskId job = builder.add_task(new_stage, std::move(name), input,
                                          output, exec, std::move(preds));
      for (std::size_t i = start; i < end; ++i) {
        mapping[members[i]] = job;
      }
    }
  }

  return ClusteredWorkflow{builder.build(), std::move(mapping), merged};
}

}  // namespace wire::dag
