// Tests for the metrics collectors and the experiment harness (settings
// matrix, repetition runner, prediction-replay harness).
#include <gtest/gtest.h>

#include "exp/prediction_harness.h"
#include "exp/runner.h"
#include "exp/settings.h"
#include "metrics/report.h"
#include "util/check.h"
#include "workload/generators.h"

namespace wire {
namespace {

TEST(Metrics, ErrorDefinitionsMatchThePaper) {
  EXPECT_DOUBLE_EQ(metrics::true_error(12.0, 10.0), 2.0);
  EXPECT_DOUBLE_EQ(metrics::true_error(8.0, 10.0), -2.0);
  EXPECT_DOUBLE_EQ(metrics::relative_true_error(12.0, 10.0), 0.2);
  EXPECT_DOUBLE_EQ(metrics::relative_true_error(5.0, 10.0), -0.5);
  EXPECT_THROW(metrics::relative_true_error(1.0, 0.0),
               util::ContractViolation);
}

TEST(Metrics, CellStatsAggregates) {
  metrics::CellStats stats;
  sim::RunResult r;
  r.cost_units = 4.0;
  r.makespan = 100.0;
  r.utilization = 0.5;
  stats.add(r);
  r.cost_units = 6.0;
  r.makespan = 200.0;
  r.utilization = 0.9;
  stats.add(r);
  EXPECT_EQ(stats.runs(), 2u);
  EXPECT_DOUBLE_EQ(stats.cost_units.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.makespan_seconds.mean(), 150.0);
  EXPECT_DOUBLE_EQ(stats.utilization.mean(), 0.7);
}

TEST(Settings, PaperMatrixShape) {
  EXPECT_EQ(exp::all_policies().size(), 4u);
  const auto units = exp::paper_charging_units();
  ASSERT_EQ(units.size(), 4u);
  EXPECT_DOUBLE_EQ(units[0], 60.0);
  EXPECT_DOUBLE_EQ(units[3], 3600.0);
  const sim::CloudConfig config = exp::paper_cloud(900.0);
  EXPECT_DOUBLE_EQ(config.lag_seconds, 180.0);
  EXPECT_EQ(config.slots_per_instance, 4u);
  EXPECT_EQ(config.max_instances, 12u);
}

TEST(Settings, PolicyFactoryProducesDistinctPolicies) {
  for (exp::PolicyKind kind : exp::all_policies()) {
    const auto policy = exp::make_policy(kind);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->name(), exp::policy_label(kind));
  }
  EXPECT_EQ(exp::initial_instances(exp::PolicyKind::FullSite,
                                   exp::paper_cloud(60.0)),
            12u);
  EXPECT_EQ(exp::initial_instances(exp::PolicyKind::Wire,
                                   exp::paper_cloud(60.0)),
            1u);
}

TEST(Runner, CellIsReproducible) {
  const dag::Workflow wf = workload::make_workflow(
      workload::tpch6_profile(workload::Scale::Small), 7);
  exp::MatrixOptions options;
  options.repetitions = 2;
  const exp::CellResult a =
      exp::run_cell(wf, exp::PolicyKind::PureReactive, 900.0, options, 3);
  const exp::CellResult b =
      exp::run_cell(wf, exp::PolicyKind::PureReactive, 900.0, options, 3);
  ASSERT_EQ(a.runs.size(), 2u);
  EXPECT_DOUBLE_EQ(a.stats.cost_units.mean(), b.stats.cost_units.mean());
  EXPECT_DOUBLE_EQ(a.runs[0].makespan, b.runs[0].makespan);
  // Different repetitions within the cell use different seeds.
  EXPECT_NE(a.runs[0].makespan, a.runs[1].makespan);
}

TEST(Runner, MatrixCoversEveryCell) {
  exp::MatrixOptions options;
  options.repetitions = 1;
  options.policies = {exp::PolicyKind::FullSite, exp::PolicyKind::Wire};
  options.charging_units = {60.0, 900.0};
  options.threads = 4;
  const auto results = exp::run_matrix(
      {workload::tpch6_profile(workload::Scale::Small)}, options);
  ASSERT_EQ(results.size(), 4u);
  for (const exp::CellResult& cell : results) {
    EXPECT_EQ(cell.workflow, "TPCH-6 S");
    EXPECT_EQ(cell.stats.runs(), 1u);
    EXPECT_GE(cell.stats.cost_units.min(), 1.0);
  }
  // Full-site at u=60 must cost more than wire at u=60.
  EXPECT_GT(results[0].stats.cost_units.mean(),
            results[2].stats.cost_units.mean());
}

TEST(PredictionHarness, ReplayAlignsPredictionsWithActuals) {
  const dag::Workflow wf = workload::linear_workflow(1, 10, 50.0, "stage");
  std::vector<double> actual(wf.task_count(), 0.0);
  for (dag::TaskId t = 0; t < 10; ++t) {
    actual[t] = 40.0 + t;  // mild spread
  }
  std::vector<dag::TaskId> order;
  for (dag::TaskId t = 0; t < 10; ++t) order.push_back(t);
  const exp::StageReplay replay = exp::replay_stage(wf, 0, actual, order);
  // First task excluded: 9 predictions.
  ASSERT_EQ(replay.actual.size(), 9u);
  ASSERT_EQ(replay.predicted_ready.size(), 9u);
  ASSERT_EQ(replay.predicted_pending.size(), 9u);
  ASSERT_EQ(replay.ready_policy.size(), 9u);
  // All tasks share input size 0 -> policy 4 group medians everywhere, and
  // every prediction is within the observed spread.
  for (std::size_t i = 0; i < replay.actual.size(); ++i) {
    EXPECT_EQ(replay.ready_policy[i], predict::Policy::CompletedKnownSize);
    EXPECT_GE(replay.predicted_ready[i], 40.0);
    EXPECT_LE(replay.predicted_ready[i], 49.0);
  }
}

TEST(PredictionHarness, AccurateForHomogeneousStages) {
  const dag::Workflow wf = workload::linear_workflow(1, 20, 30.0, "flat");
  std::vector<double> actual(wf.task_count(), 30.0);
  const auto replays = exp::replay_stage_random_orders(wf, 0, actual,
                                                       /*n_orders=*/5, 42);
  ASSERT_EQ(replays.size(), 5u);
  for (const exp::StageReplay& r : replays) {
    for (std::size_t i = 0; i < r.actual.size(); ++i) {
      EXPECT_DOUBLE_EQ(r.predicted_ready[i], 30.0);
      EXPECT_DOUBLE_EQ(r.predicted_pending[i], 30.0);
    }
  }
}

TEST(PredictionHarness, RandomOrdersDiffer) {
  const dag::Workflow wf = workload::linear_workflow(1, 12, 30.0, "skewed");
  std::vector<double> actual(wf.task_count());
  for (dag::TaskId t = 0; t < 12; ++t) {
    actual[t] = 5.0 + 10.0 * t;  // strong order sensitivity
  }
  const auto replays =
      exp::replay_stage_random_orders(wf, 0, actual, 4, 7);
  // At least two orders must produce different first predictions.
  bool differ = false;
  for (std::size_t i = 1; i < replays.size(); ++i) {
    if (replays[i].predicted_ready.front() !=
        replays[0].predicted_ready.front()) {
      differ = true;
    }
  }
  EXPECT_TRUE(differ);
}

TEST(PredictionHarness, RejectsBadInputs) {
  const dag::Workflow wf = workload::linear_workflow(1, 4, 30.0);
  std::vector<double> actual(wf.task_count(), 30.0);
  std::vector<dag::TaskId> short_order{0, 1};
  EXPECT_THROW(exp::replay_stage(wf, 0, actual, short_order),
               util::ContractViolation);
  std::vector<double> missing(wf.task_count(), 0.0);
  std::vector<dag::TaskId> order{0, 1, 2, 3};
  EXPECT_THROW(exp::replay_stage(wf, 0, missing, order),
               util::ContractViolation);
}

}  // namespace
}  // namespace wire
