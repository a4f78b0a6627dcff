// Tests for horizontal task clustering: structure preservation, work
// conservation, dependency correctness, and end-to-end equivalence.
#include <gtest/gtest.h>

#include "core/controller.h"
#include "dag/analysis.h"
#include "dag/clustering.h"
#include "sim/driver.h"
#include "util/check.h"
#include "workload/generators.h"
#include "workload/pegasus_extra.h"
#include "workload/profiles.h"

namespace wire::dag {
namespace {

TEST(Clustering, MergesWideStagesByFactor) {
  const Workflow wf = workload::linear_workflow(2, 16, 10.0);
  ClusterOptions options;
  options.factor = 4;
  const ClusteredWorkflow c = cluster_horizontal(wf, options);
  EXPECT_EQ(c.workflow.task_count(), 8u);  // 16/4 per stage, 2 stages
  EXPECT_EQ(c.workflow.stage_count(), 2u);
  EXPECT_EQ(c.merged_jobs, 8u);
  // Work conservation.
  EXPECT_DOUBLE_EQ(c.workflow.aggregate_ref_exec_seconds(),
                   wf.aggregate_ref_exec_seconds());
  // Each clustered job runs 4 x 10 s sequentially.
  for (const TaskSpec& t : c.workflow.tasks()) {
    EXPECT_DOUBLE_EQ(t.ref_exec_seconds, 40.0);
  }
}

TEST(Clustering, NarrowStagesAreLeftAlone) {
  const Workflow wf = workload::linear_workflow(3, 4, 10.0);
  ClusterOptions options;
  options.factor = 4;
  options.min_stage_tasks = 8;
  const ClusteredWorkflow c = cluster_horizontal(wf, options);
  EXPECT_EQ(c.workflow.task_count(), wf.task_count());
  EXPECT_EQ(c.merged_jobs, 0u);
  for (TaskId t = 0; t < wf.task_count(); ++t) {
    EXPECT_EQ(c.workflow.task_name(c.task_mapping[t]), wf.task_name(t));
  }
}

TEST(Clustering, DependenciesAreMappedThrough) {
  const Workflow wf = workload::linear_workflow(2, 16, 10.0);
  const ClusteredWorkflow c = cluster_horizontal(wf, {4, 8});
  // Stage barrier preserved: every stage-1 cluster depends on every stage-0
  // cluster (all-to-all mapped through).
  for (TaskId t : c.workflow.stage_tasks(1)) {
    EXPECT_EQ(c.workflow.predecessors(t).size(), 4u);
  }
  // Mapping is surjective onto the clustered ids.
  for (TaskId t = 0; t < wf.task_count(); ++t) {
    EXPECT_LT(c.task_mapping[t], c.workflow.task_count());
  }
}

TEST(Clustering, PartialFinalGroup) {
  const Workflow wf = workload::linear_workflow(1, 10, 5.0);
  const ClusteredWorkflow c = cluster_horizontal(wf, {4, 4});
  // 10 tasks at factor 4 -> groups of 4, 4, 2.
  EXPECT_EQ(c.workflow.task_count(), 3u);
  EXPECT_DOUBLE_EQ(c.workflow.task(2).ref_exec_seconds, 10.0);
}

TEST(Clustering, WorksOnCrossStageEdges) {
  // Montage has cross-stage edges (mBackground -> {mProject, mBgModel});
  // layered-stage clustering must still produce a valid DAG with the same
  // aggregate work.
  const Workflow wf = workload::montage(64, 7);
  const ClusteredWorkflow c = cluster_horizontal(wf, {4, 8});
  EXPECT_LT(c.workflow.task_count(), wf.task_count());
  EXPECT_NEAR(c.workflow.aggregate_ref_exec_seconds(),
              wf.aggregate_ref_exec_seconds(), 1e-6);
  EXPECT_EQ(c.workflow.stage_count(), wf.stage_count());
}

TEST(Clustering, FactorOneIsIdentityOnStructure) {
  const Workflow wf = workload::make_workflow(
      workload::tpch1_profile(workload::Scale::Small), 7);
  const ClusteredWorkflow c = cluster_horizontal(wf, {1, 1});
  EXPECT_EQ(c.workflow.task_count(), wf.task_count());
  EXPECT_EQ(c.merged_jobs, 0u);
  for (TaskId t = 0; t < wf.task_count(); ++t) {
    EXPECT_EQ(c.task_mapping[t], t);
    EXPECT_EQ(c.workflow.predecessors(t).size(),
              wf.predecessors(t).size());
  }
}

TEST(Clustering, InvalidOptionsThrow) {
  const Workflow wf = workload::linear_workflow(1, 4, 5.0);
  ClusterOptions options;
  options.factor = 0;
  EXPECT_THROW(cluster_horizontal(wf, options), util::ContractViolation);
}

TEST(Clustering, ClusteredRunCompletesAndLengthensTasks) {
  // End to end: the clustered genome runs under WIRE; at a long charging
  // unit the clustered variant wastes no more than the original (longer
  // tasks fill units better).
  const Workflow wf = workload::make_workflow(
      workload::epigenomics_profile(workload::Scale::Small), 7);
  const ClusteredWorkflow c = cluster_horizontal(wf, {8, 16});

  sim::CloudConfig config;
  config.lag_seconds = 180.0;
  config.charging_unit_seconds = 1800.0;
  config.slots_per_instance = 4;
  config.max_instances = 12;
  sim::RunOptions options;
  options.seed = 3;
  options.initial_instances = 1;

  core::WireController a;
  const sim::RunResult plain = sim::simulate(wf, a, config, options);
  core::WireController b;
  const sim::RunResult clustered =
      sim::simulate(c.workflow, b, config, options);

  for (const sim::TaskRuntime& rec : clustered.task_records) {
    EXPECT_EQ(rec.phase, sim::TaskPhase::Completed);
  }
  EXPECT_LE(clustered.cost_units, plain.cost_units * 1.5);
}

}  // namespace
}  // namespace wire::dag
