// Unit tests for the workflow DAG model: builder validation, adjacency,
// topological order, analysis, and serialization round-trips.
#include <gtest/gtest.h>

#include <vector>

#include "dag/analysis.h"
#include "dag/serialize.h"
#include "dag/workflow.h"
#include "util/check.h"

namespace wire::dag {
namespace {

/// Diamond: a -> {b, c} -> d, two stages for the middle pair.
Workflow make_diamond() {
  WorkflowBuilder builder("diamond");
  const StageId s0 = builder.add_stage("root");
  const StageId s1 = builder.add_stage("middle");
  const StageId s2 = builder.add_stage("sink");
  const TaskId a = builder.add_task(s0, "a", 10.0, 5.0, 4.0, {});
  const TaskId b = builder.add_task(s1, "b", 5.0, 2.0, 2.0, {a});
  const TaskId c = builder.add_task(s1, "c", 5.0, 2.0, 6.0, {a});
  builder.add_task(s2, "d", 4.0, 1.0, 3.0, {b, c});
  return builder.build();
}

TEST(WorkflowBuilder, BuildsDiamond) {
  const Workflow wf = make_diamond();
  EXPECT_EQ(wf.task_count(), 4u);
  EXPECT_EQ(wf.stage_count(), 3u);
  EXPECT_EQ(wf.roots().size(), 1u);
  EXPECT_EQ(wf.sinks().size(), 1u);
  EXPECT_DOUBLE_EQ(wf.aggregate_ref_exec_seconds(), 15.0);
  EXPECT_DOUBLE_EQ(wf.input_dataset_mb(), 10.0);
}

TEST(WorkflowBuilder, AdjacencyIsConsistent) {
  const Workflow wf = make_diamond();
  EXPECT_TRUE(wf.predecessors(0).empty());
  ASSERT_EQ(wf.successors(0).size(), 2u);
  EXPECT_EQ(wf.successors(0)[0], 1u);
  EXPECT_EQ(wf.successors(0)[1], 2u);
  ASSERT_EQ(wf.predecessors(3).size(), 2u);
  EXPECT_EQ(wf.predecessors(3)[0], 1u);
  EXPECT_EQ(wf.predecessors(3)[1], 2u);
  EXPECT_TRUE(wf.successors(3).empty());
}

TEST(WorkflowBuilder, StageMembership) {
  const Workflow wf = make_diamond();
  ASSERT_EQ(wf.stage_tasks(1).size(), 2u);
  EXPECT_EQ(wf.stage_tasks(1)[0], 1u);
  EXPECT_EQ(wf.stage_tasks(1)[1], 2u);
  EXPECT_EQ(wf.task(2).stage, 1u);
}

TEST(WorkflowBuilder, TopologicalOrderRespectsEdges) {
  const Workflow wf = make_diamond();
  const auto& topo = wf.topological_order();
  ASSERT_EQ(topo.size(), 4u);
  std::vector<std::size_t> pos(4);
  for (std::size_t i = 0; i < topo.size(); ++i) pos[topo[i]] = i;
  for (const TaskSpec& t : wf.tasks()) {
    for (TaskId pred : wf.predecessors(t.id)) {
      EXPECT_LT(pos[pred], pos[t.id]);
    }
  }
}

TEST(WorkflowBuilder, DuplicatePredecessorsAreDeduplicated) {
  WorkflowBuilder builder("dup");
  const StageId s0 = builder.add_stage("s0");
  const StageId s1 = builder.add_stage("s1");
  const TaskId a = builder.add_task(s0, "a", 1.0, 1.0, 1.0, {});
  builder.add_task(s1, "b", 1.0, 1.0, 1.0, {a, a, a});
  const Workflow wf = builder.build();
  EXPECT_EQ(wf.predecessors(1).size(), 1u);
}

TEST(WorkflowBuilder, RejectsForwardDependencies) {
  WorkflowBuilder builder("bad");
  const StageId s0 = builder.add_stage("s0");
  EXPECT_THROW(builder.add_task(s0, "a", 1.0, 1.0, 1.0, {5}),
               util::ContractViolation);
}

TEST(WorkflowBuilder, RejectsUnknownStage) {
  WorkflowBuilder builder("bad");
  EXPECT_THROW(builder.add_task(99, "a", 1.0, 1.0, 1.0, {}),
               util::ContractViolation);
}

TEST(WorkflowBuilder, RejectsEmptyWorkflow) {
  WorkflowBuilder builder("empty");
  EXPECT_THROW(builder.build(), util::ContractViolation);
}

TEST(WorkflowBuilder, RejectsEmptyStage) {
  WorkflowBuilder builder("bad");
  const StageId s0 = builder.add_stage("s0");
  builder.add_stage("never-used");
  builder.add_task(s0, "a", 1.0, 1.0, 1.0, {});
  EXPECT_THROW(builder.build(), util::ContractViolation);
}

TEST(WorkflowBuilder, RejectsNegativeProfile) {
  WorkflowBuilder builder("bad");
  const StageId s0 = builder.add_stage("s0");
  EXPECT_THROW(builder.add_task(s0, "a", -1.0, 1.0, 1.0, {}),
               util::ContractViolation);
  EXPECT_THROW(builder.add_task(s0, "a", 1.0, 1.0, -2.0, {}),
               util::ContractViolation);
}

TEST(Analysis, LevelsAndWidths) {
  const Workflow wf = make_diamond();
  const auto levels = task_levels(wf);
  EXPECT_EQ(levels[0], 0u);
  EXPECT_EQ(levels[1], 1u);
  EXPECT_EQ(levels[2], 1u);
  EXPECT_EQ(levels[3], 2u);
  const auto widths = width_profile(wf);
  ASSERT_EQ(widths.size(), 3u);
  EXPECT_EQ(widths[0], 1u);
  EXPECT_EQ(widths[1], 2u);
  EXPECT_EQ(widths[2], 1u);
  EXPECT_EQ(max_width(wf), 2u);
}

TEST(Analysis, CriticalPath) {
  // Longest path is a(4) -> c(6) -> d(3) = 13.
  EXPECT_DOUBLE_EQ(critical_path_seconds(make_diamond()), 13.0);
}

TEST(Analysis, StageSummaries) {
  const auto summaries = summarize_stages(make_diamond());
  ASSERT_EQ(summaries.size(), 3u);
  EXPECT_EQ(summaries[1].task_count, 2u);
  EXPECT_DOUBLE_EQ(summaries[1].mean_ref_exec_seconds, 4.0);
  EXPECT_DOUBLE_EQ(summaries[1].min_ref_exec_seconds, 2.0);
  EXPECT_DOUBLE_EQ(summaries[1].max_ref_exec_seconds, 6.0);
}

TEST(Analysis, StageClassBoundaries) {
  EXPECT_EQ(classify_stage(5.0), StageClass::Short);
  EXPECT_EQ(classify_stage(10.0), StageClass::Short);
  EXPECT_EQ(classify_stage(10.01), StageClass::Medium);
  EXPECT_EQ(classify_stage(30.0), StageClass::Medium);
  EXPECT_EQ(classify_stage(30.01), StageClass::Long);
}

TEST(Analysis, WorkflowSummaryRanges) {
  const auto summary = summarize_workflow(make_diamond());
  EXPECT_EQ(summary.task_count, 4u);
  EXPECT_EQ(summary.stage_count, 3u);
  EXPECT_EQ(summary.min_stage_tasks, 1u);
  EXPECT_EQ(summary.max_stage_tasks, 2u);
  EXPECT_EQ(summary.task_type_mix, "short");
}

TEST(Analysis, LayeredStageCheck) {
  EXPECT_TRUE(stages_are_layered(make_diamond()));
}

TEST(Serialize, RoundTripPreservesEverything) {
  const Workflow original = make_diamond();
  const Workflow parsed = from_string(to_string(original));
  EXPECT_EQ(parsed.name(), original.name());
  ASSERT_EQ(parsed.task_count(), original.task_count());
  ASSERT_EQ(parsed.stage_count(), original.stage_count());
  for (TaskId t = 0; t < original.task_count(); ++t) {
    EXPECT_EQ(parsed.task_name(t), original.task_name(t));
    EXPECT_EQ(parsed.task(t).stage, original.task(t).stage);
    EXPECT_DOUBLE_EQ(parsed.task(t).input_mb, original.task(t).input_mb);
    EXPECT_DOUBLE_EQ(parsed.task(t).ref_exec_seconds,
                     original.task(t).ref_exec_seconds);
    ASSERT_EQ(parsed.predecessors(t).size(), original.predecessors(t).size());
    for (std::size_t i = 0; i < parsed.predecessors(t).size(); ++i) {
      EXPECT_EQ(parsed.predecessors(t)[i], original.predecessors(t)[i]);
    }
  }
}

TEST(Serialize, EscapesAwkwardNames) {
  WorkflowBuilder builder("name with spaces");
  const StageId s0 = builder.add_stage("stage one", "");
  builder.add_task(s0, "task\twith\ttabs", 1.0, 0.0, 1.0, {});
  const Workflow parsed = from_string(to_string(builder.build()));
  EXPECT_EQ(parsed.name(), "name with spaces");
  EXPECT_EQ(parsed.stage(0).name, "stage one");
  EXPECT_EQ(parsed.stage(0).executable, "");
  EXPECT_EQ(parsed.task_name(0), "task\twith\ttabs");
}

TEST(Serialize, TokenEscapeRoundTrip) {
  for (const std::string& raw :
       {std::string{}, std::string{"plain"}, std::string{"a b"},
        std::string{"back\\slash"}, std::string{"new\nline"}}) {
    EXPECT_EQ(unescape_token(escape_token(raw)), raw);
  }
}

TEST(Serialize, MalformedInputThrows) {
  EXPECT_THROW(from_string("garbage"), util::ContractViolation);
  EXPECT_THROW(from_string("workflow w\nstage 0 s e\n"),
               util::ContractViolation);
  EXPECT_THROW(from_string("workflow w\nbogus 1 2 3\nend\n"),
               util::ContractViolation);
}

}  // namespace
}  // namespace wire::dag
