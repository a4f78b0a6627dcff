#include "core/run_state.h"

#include "util/check.h"

namespace wire::core {

using dag::TaskId;

void count_incomplete_preds(const dag::Workflow& workflow,
                            const sim::MonitorSnapshot& snapshot,
                            std::vector<std::uint32_t>& remaining_preds) {
  remaining_preds.assign(workflow.task_count(), 0);
  for (const dag::TaskSpec& t : workflow.tasks()) {
    for (TaskId pred : workflow.predecessors(t.id)) {
      if (snapshot.tasks[pred].phase != sim::TaskPhase::Completed) {
        ++remaining_preds[t.id];
      }
    }
  }
}

void RunState::update(const dag::Workflow& workflow,
                      const sim::MonitorSnapshot& snapshot) {
  if (!synced_ || !snapshot.delta.exact) {
    rebuild(workflow, snapshot);
    synced_ = true;
    return;
  }
  apply_delta(workflow, snapshot.delta);
}

void RunState::rebuild(const dag::Workflow& workflow,
                       const sim::MonitorSnapshot& snapshot) {
  WIRE_REQUIRE(snapshot.tasks.size() == workflow.task_count(),
               "snapshot does not match the workflow");
  count_incomplete_preds(workflow, snapshot, remaining_preds_);
  completed_.assign(workflow.task_count(), 0);
  for (const dag::TaskSpec& t : workflow.tasks()) {
    if (snapshot.tasks[t.id].phase == sim::TaskPhase::Completed) {
      completed_[t.id] = 1;
    }
  }
}

void RunState::apply_delta(const dag::Workflow& workflow,
                           const sim::MonitorDelta& delta) {
  for (TaskId t : delta.completed) {
    if (completed_[t]) continue;  // replayed journal
    completed_[t] = 1;
    for (TaskId succ : workflow.successors(t)) {
      WIRE_CHECK(remaining_preds_[succ] > 0, "predecessor count underflow");
      --remaining_preds_[succ];
    }
  }
}

}  // namespace wire::core
