// Tests for the framework master: ready-queue discipline (FIFO with the
// first-five-per-stage priority rule), task lifecycle transitions, slot
// bookkeeping, resubmission, and monitoring observations.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "dag/workflow.h"
#include "oracle/snapshot_oracle.h"
#include "sim/framework.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace wire::sim {
namespace {

using dag::TaskId;

/// Chain a -> b plus an independent root c.
dag::Workflow make_small() {
  dag::WorkflowBuilder builder("small");
  const auto s0 = builder.add_stage("roots");
  const auto s1 = builder.add_stage("next");
  const TaskId a = builder.add_task(s0, "a", 1.0, 1.0, 5.0, {});
  builder.add_task(s1, "b", 1.0, 1.0, 5.0, {a});
  builder.add_task(s0, "c", 1.0, 1.0, 5.0, {});
  return builder.build();
}

TEST(FrameworkMaster, RootsStartReady) {
  const dag::Workflow wf = make_small();
  FrameworkMaster fm(wf);
  EXPECT_EQ(fm.ready_count(), 2u);
  EXPECT_EQ(fm.runtime(0).phase, TaskPhase::Ready);
  EXPECT_EQ(fm.runtime(1).phase, TaskPhase::Pending);
  EXPECT_EQ(fm.runtime(2).phase, TaskPhase::Ready);
}

TEST(FrameworkMaster, LifecycleTransitions) {
  const dag::Workflow wf = make_small();
  FrameworkMaster fm(wf);
  fm.register_instance(0, 4);
  const TaskId t = fm.pop_ready();
  EXPECT_EQ(t, 0u);

  fm.on_dispatch(t, 0, 0, 10.0);
  EXPECT_EQ(fm.runtime(t).phase, TaskPhase::Running);
  EXPECT_EQ(fm.free_slots(0), 3u);
  EXPECT_EQ(fm.runtime(t).attempts, 1u);

  fm.on_transfer_in_done(t, 12.0);
  EXPECT_DOUBLE_EQ(fm.runtime(t).transfer_in_time, 2.0);

  fm.on_exec_done(t, 17.0);
  EXPECT_DOUBLE_EQ(fm.runtime(t).exec_time, 5.0);

  EXPECT_EQ(fm.on_complete(t, 18.0), 1u);
  EXPECT_EQ(fm.runtime(t).phase, TaskPhase::Completed);
  EXPECT_DOUBLE_EQ(fm.runtime(t).transfer_out_time, 1.0);
  EXPECT_EQ(fm.runtime(1).phase, TaskPhase::Ready);  // b became ready
  EXPECT_EQ(fm.peek_ready(), std::optional<TaskId>(2u));  // root c first
  EXPECT_EQ(fm.free_slots(0), 4u);
  EXPECT_DOUBLE_EQ(fm.busy_slot_seconds(), 8.0);
}

TEST(FrameworkMaster, AllCompleteAfterEveryTask) {
  const dag::Workflow wf = make_small();
  FrameworkMaster fm(wf);
  fm.register_instance(0, 4);
  double now = 0.0;
  while (!fm.all_complete()) {
    ASSERT_TRUE(fm.has_ready());
    const TaskId t = fm.pop_ready();
    const std::uint32_t slot = fm.take_free_slot(0);
    fm.on_dispatch(t, 0, slot, now);
    fm.on_transfer_in_done(t, now + 1.0);
    fm.on_exec_done(t, now + 6.0);
    fm.on_complete(t, now + 7.0);
    now += 10.0;
  }
  EXPECT_EQ(fm.completed_count(), 3u);
}

TEST(FrameworkMaster, ResubmissionRestartsTasks) {
  const dag::Workflow wf = make_small();
  FrameworkMaster fm(wf);
  fm.register_instance(0, 4);
  const TaskId t = fm.pop_ready();
  fm.on_dispatch(t, 0, 0, 0.0);
  fm.on_transfer_in_done(t, 1.0);

  const auto killed = fm.resubmit_tasks_on(0, 4.0);
  ASSERT_EQ(killed.size(), 1u);
  EXPECT_EQ(killed[0], t);
  EXPECT_EQ(fm.runtime(t).phase, TaskPhase::Ready);
  EXPECT_EQ(fm.total_restarts(), 1u);
  EXPECT_DOUBLE_EQ(fm.wasted_slot_seconds(), 4.0);
  EXPECT_EQ(fm.free_slots(0), 4u);

  // FIFO by ready time: the untouched root "c" (ready at 0) now precedes the
  // resubmitted task (re-enqueued at 4.0).
  EXPECT_EQ(fm.pop_ready(), 2u);
  const TaskId again = fm.pop_ready();
  EXPECT_EQ(again, t);
  fm.on_dispatch(again, 0, 0, 10.0);
  EXPECT_EQ(fm.runtime(again).attempts, 2u);
  fm.on_transfer_in_done(again, 11.0);
  fm.on_exec_done(again, 16.0);
  fm.on_complete(again, 17.0);
  EXPECT_EQ(fm.runtime(again).phase, TaskPhase::Completed);
}

TEST(FrameworkMaster, FirstFivePerStageJumpTheQueue) {
  // One wide stage whose tasks become ready at t=0 (roots), then a second
  // wide stage. The first five ready tasks of EACH stage get priority.
  const dag::Workflow wf = workload::linear_workflow(1, 12, 5.0, "wide");
  FrameworkMaster fm(wf);
  // All 12 are ready at time 0; the first five (by id) were promoted.
  int promoted = 0;
  for (TaskId t = 0; t < 12; ++t) {
    if (fm.runtime(t).high_priority) ++promoted;
  }
  EXPECT_EQ(promoted, 5);
  // Priority tasks pop first.
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(fm.runtime(fm.pop_ready()).high_priority);
  }
  for (int i = 0; i < 7; ++i) {
    EXPECT_FALSE(fm.runtime(fm.pop_ready()).high_priority);
  }
}

TEST(FrameworkMaster, PriorityBudgetIsPerStage) {
  // Two stages of 8: each stage gets its own 5 promotions.
  dag::WorkflowBuilder builder("two-stage");
  const auto s0 = builder.add_stage("s0");
  const auto s1 = builder.add_stage("s1");
  std::vector<TaskId> firsts;
  for (int i = 0; i < 8; ++i) {
    firsts.push_back(
        builder.add_task(s0, "a" + std::to_string(i), 1, 1, 1, {}));
  }
  for (int i = 0; i < 8; ++i) {
    builder.add_task(s1, "b" + std::to_string(i), 1, 1, 1, firsts);
  }
  const dag::Workflow wf = builder.build();
  FrameworkMaster fm(wf);
  fm.register_instance(0, 16);

  // Complete stage 0 entirely.
  while (fm.has_ready()) {
    const TaskId t = fm.pop_ready();
    const std::uint32_t slot = fm.take_free_slot(0);
    fm.on_dispatch(t, 0, slot, 0.0);
    fm.on_transfer_in_done(t, 1.0);
    fm.on_exec_done(t, 2.0);
    if (t < 8) fm.on_complete(t, 3.0);
  }
  // Stage-1 tasks became ready when the last stage-0 task completed; exactly
  // five of them were promoted.
  int promoted = 0;
  for (TaskId t = 8; t < 16; ++t) {
    if (fm.runtime(t).high_priority) ++promoted;
  }
  EXPECT_EQ(promoted, 5);
}

TEST(FrameworkMaster, ResubmittedPriorityTaskKeepsPriorityWithoutDoubleCount) {
  const dag::Workflow wf = workload::linear_workflow(1, 12, 5.0, "wide");
  FrameworkMaster fm(wf);
  fm.register_instance(0, 12);
  const TaskId t = fm.pop_ready();
  ASSERT_TRUE(fm.runtime(t).high_priority);
  fm.on_dispatch(t, 0, fm.take_free_slot(0), 0.0);
  fm.resubmit_tasks_on(0, 1.0);
  EXPECT_TRUE(fm.runtime(t).high_priority);
  // Still exactly five promoted in total.
  int promoted = 0;
  for (TaskId i = 0; i < 12; ++i) {
    if (fm.runtime(i).high_priority) ++promoted;
  }
  EXPECT_EQ(promoted, 5);
}

TEST(FrameworkMaster, ObservationsMirrorLifecycle) {
  const dag::Workflow wf = make_small();
  FrameworkMaster fm(wf);
  fm.register_instance(0, 4);
  const TaskId t = fm.pop_ready();
  fm.on_dispatch(t, 0, 0, 10.0);
  fm.on_transfer_in_done(t, 12.0);

  std::vector<TaskObservation> obs;
  oracle::fill_observations(fm, 20.0, obs);
  ASSERT_EQ(obs.size(), 3u);
  EXPECT_EQ(obs[t].phase, TaskPhase::Running);
  EXPECT_DOUBLE_EQ(obs[t].elapsed, 10.0);
  EXPECT_DOUBLE_EQ(obs[t].elapsed_exec, 8.0);
  EXPECT_DOUBLE_EQ(obs[t].transfer_in_time, 2.0);
  EXPECT_EQ(obs[t].instance, 0u);
  EXPECT_EQ(obs[1].phase, TaskPhase::Pending);
  EXPECT_EQ(obs[2].phase, TaskPhase::Ready);
  // Completed record carries the kickstart fields.
  fm.on_exec_done(t, 15.0);
  fm.on_complete(t, 16.0);
  oracle::fill_observations(fm, 20.0, obs);
  EXPECT_EQ(obs[t].phase, TaskPhase::Completed);
  EXPECT_DOUBLE_EQ(obs[t].exec_time, 3.0);
  EXPECT_DOUBLE_EQ(obs[t].transfer_time, 3.0);  // 2 in + 1 out
}

TEST(FrameworkMaster, InvalidTransitionsThrow) {
  const dag::Workflow wf = make_small();
  FrameworkMaster fm(wf);
  fm.register_instance(0, 4);
  EXPECT_THROW(fm.on_dispatch(1, 0, 0, 0.0), util::ContractViolation);
  const TaskId t = fm.pop_ready();
  fm.on_dispatch(t, 0, 0, 0.0);
  EXPECT_THROW(fm.on_dispatch(t, 0, 1, 0.0), util::ContractViolation);
  EXPECT_THROW(fm.on_complete(2, 1.0), util::ContractViolation);
}

TEST(FrameworkMaster, FreeSlotCountTracksEveryTransition) {
  // Random dispatch / complete / resubmit / fault / OOM steps over three
  // registered instances (ids 0, 2, 3; id 1 is never registered), checked
  // after every step against a plain per-slot model.
  const dag::Workflow wf = workload::linear_workflow(1, 40, 5.0, "wide");
  FrameworkMaster fm(wf);
  constexpr std::uint32_t kSlots = 3;
  const std::vector<InstanceId> ids = {0, 2, 3};
  std::vector<std::vector<TaskId>> model(4);
  for (InstanceId id : ids) {
    fm.register_instance(id, kSlots);
    fm.register_instance(id, 7);  // idempotent: the first size sticks
    model[id].assign(kSlots, dag::kInvalidTask);
  }
  util::Rng rng(17);
  double now = 0.0;
  std::vector<TaskId> running;
  std::vector<TaskId> retrying;

  const auto check = [&](int step) {
    SCOPED_TRACE("step " + std::to_string(step));
    for (InstanceId id : ids) {
      std::vector<TaskId> want;
      for (TaskId t : model[id]) {
        if (t != dag::kInvalidTask) want.push_back(t);
      }
      EXPECT_EQ(fm.tasks_on(id), want);
      EXPECT_EQ(fm.free_slots(id), kSlots - fm.tasks_on(id).size());
      if (fm.free_slots(id) > 0) {
        const auto lowest = static_cast<std::uint32_t>(
            std::find(model[id].begin(), model[id].end(), dag::kInvalidTask) -
            model[id].begin());
        EXPECT_EQ(fm.take_free_slot(id), lowest);
      }
    }
    EXPECT_EQ(fm.free_slots(1), 0u);
    EXPECT_EQ(fm.free_slots(99), 0u);
    EXPECT_TRUE(fm.tasks_on(1).empty());
    EXPECT_DOUBLE_EQ(fm.mem_used(1), 0.0);
  };
  const auto unbind = [&](TaskId t) {
    const TaskRuntime& rt = fm.runtime(t);
    model[rt.instance][rt.slot] = dag::kInvalidTask;
    running.erase(std::find(running.begin(), running.end(), t));
  };

  check(-1);
  int kinds_seen[5] = {0, 0, 0, 0, 0};
  for (int step = 0; step < 600 && !fm.all_complete(); ++step) {
    now += 1.0;
    const auto action = rng.uniform_int(0, 9);
    if (action < 4) {
      if (!fm.has_ready()) continue;
      const InstanceId id = ids[rng.uniform_int(0, 2)];
      if (fm.free_slots(id) == 0) continue;
      const TaskId t = fm.pop_ready();
      const std::uint32_t slot = fm.take_free_slot(id);
      fm.on_dispatch(t, id, slot, now, 100.0);
      fm.on_transfer_in_done(t, now);
      model[id][slot] = t;
      running.push_back(t);
      ++kinds_seen[0];
    } else if (action < 6) {
      if (running.empty()) continue;
      const TaskId t = running[rng.uniform_int(0, running.size() - 1)];
      unbind(t);
      fm.on_exec_done(t, now);
      fm.on_complete(t, now);
      ++kinds_seen[1];
    } else if (action == 6) {
      const InstanceId id = ids[rng.uniform_int(0, 2)];
      const std::vector<TaskId> on_it = fm.tasks_on(id);
      for (TaskId t : on_it) unbind(t);
      EXPECT_EQ(fm.resubmit_tasks_on(id, now), on_it);
      ++kinds_seen[2];
    } else if (action == 7 || action == 8) {
      if (running.empty()) continue;
      const TaskId t = running[rng.uniform_int(0, running.size() - 1)];
      unbind(t);
      if (action == 7) {
        fm.on_task_failed(t, now);
        ++kinds_seen[3];
      } else {
        fm.on_task_oom(t, now);
        ++kinds_seen[4];
      }
      retrying.push_back(t);
    } else {
      for (TaskId t : retrying) fm.requeue_failed(t, now);
      retrying.clear();
    }
    check(step);
  }
  for (int seen : kinds_seen) EXPECT_GT(seen, 0);
  for (InstanceId id : ids) EXPECT_GE(fm.mem_used(id), 0.0);
}

}  // namespace
}  // namespace wire::sim
