// Tests for the metrics collectors and the experiment harness (settings
// matrix, repetition runner, prediction-replay harness).
#include <gtest/gtest.h>

#include <cmath>

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

dag::Workflow tpch6_small() {
  return workload::make_workflow(
      workload::tpch6_profile(workload::Scale::Small), 7);
}

TEST(Study, CellIsReproducible) {
  exp::Study study;
  study.workloads = {tpch6_small()};
  study.clouds = {exp::paper_cloud(900.0)};
  study.variants = {exp::policy_variant(exp::PolicyKind::PureReactive)};
  study.repetitions = 2;
  const auto a = study.run();
  const auto b = study.run();
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(a[0].runs.size(), 2u);
  EXPECT_DOUBLE_EQ(a[0].stats.cost_units.mean(), b[0].stats.cost_units.mean());
  EXPECT_DOUBLE_EQ(a[0].runs[0].makespan, b[0].runs[0].makespan);
  // Different repetitions within the cell use different seeds.
  EXPECT_NE(a[0].runs[0].makespan, a[0].runs[1].makespan);
}

TEST(Study, MatrixCoversEveryCell) {
  exp::Study study;
  study.workloads = {tpch6_small()};
  study.clouds = {exp::paper_cloud(60.0), exp::paper_cloud(900.0)};
  study.variants = {exp::policy_variant(exp::PolicyKind::FullSite),
                    exp::policy_variant(exp::PolicyKind::Wire)};
  study.repetitions = 1;
  study.threads = 4;
  const auto cells = study.run();
  ASSERT_EQ(cells.size(), 4u);
  for (std::size_t c = 0; c < 2; ++c) {
    for (std::size_t v = 0; v < 2; ++v) {
      const exp::StudyCell& cell = cells[study.cell_index(0, c, v)];
      EXPECT_EQ(cell.cloud, c);
      EXPECT_EQ(cell.variant, v);
      EXPECT_EQ(study.workloads[cell.workload].name(), "TPCH-6 S");
      EXPECT_EQ(cell.stats.runs(), 1u);
      EXPECT_GE(cell.stats.cost_units.min(), 1.0);
    }
  }
  // Full-site at u=60 must cost more than wire at u=60.
  EXPECT_GT(cells[study.cell_index(0, 0, 0)].stats.cost_units.mean(),
            cells[study.cell_index(0, 0, 1)].stats.cost_units.mean());
}

TEST(Study, VariantsArePairedOnTheSameSeeds) {
  // A variant that is a copy of variant 0 runs on the same ground truth, so
  // its paired difference is exactly zero in every cell.
  exp::Study study;
  study.workloads = {tpch6_small(),
                     workload::make_workflow(
                         workload::epigenomics_profile(workload::Scale::Small),
                         7)};
  study.clouds = {exp::paper_cloud(60.0), exp::paper_cloud(900.0)};
  study.variants = {exp::policy_variant(exp::PolicyKind::Wire),
                    exp::policy_variant(exp::PolicyKind::Wire),
                    exp::policy_variant(exp::PolicyKind::PureReactive)};
  study.repetitions = 3;
  const auto cells = study.run();
  for (std::size_t w = 0; w < 2; ++w) {
    for (std::size_t c = 0; c < 2; ++c) {
      const exp::StudyCell& base = cells[study.cell_index(w, c, 0)];
      const exp::StudyCell& copy = cells[study.cell_index(w, c, 1)];
      for (const exp::PairedDelta& d :
           {copy.makespan_delta, copy.cost_delta}) {
        EXPECT_EQ(d.mean, 0.0);
        EXPECT_EQ(d.stddev, 0.0);
        EXPECT_EQ(d.low(), 0.0);
        EXPECT_EQ(d.high(), 0.0);
      }
      // Another policy's Δ is the difference of the cell means.
      const exp::StudyCell& other = cells[study.cell_index(w, c, 2)];
      EXPECT_NEAR(other.makespan_delta.mean,
                  other.stats.makespan_seconds.mean() -
                      base.stats.makespan_seconds.mean(),
                  1e-9);
      EXPECT_LE(other.cost_delta.low(), other.cost_delta.mean);
      EXPECT_GE(other.cost_delta.high(), other.cost_delta.mean);
    }
  }
}

TEST(Study, ConfigureEditsOnlyItsOwnRunCopy) {
  // Variant 1 edits its cloud (a crash rate); variant 2 is variant 0 again.
  // If the edit leaked into the study's cloud or another variant's run,
  // variant 2 would drift from variant 0, and variant 0 from a study that
  // never had variant 1.
  exp::Study study;
  study.workloads = {tpch6_small()};
  study.clouds = {exp::paper_cloud(60.0), exp::paper_cloud(900.0)};
  exp::Variant crashy = exp::policy_variant(exp::PolicyKind::Wire);
  crashy.configure = [](sim::CloudConfig& cloud, sim::RunOptions&) {
    cloud.faults.crash_rate_per_hour = 30.0;
  };
  study.variants = {exp::policy_variant(exp::PolicyKind::Wire), crashy,
                    exp::policy_variant(exp::PolicyKind::Wire)};
  study.repetitions = 3;
  const auto cells = study.run();
  exp::Study without = study;
  without.variants.erase(without.variants.begin() + 1);
  const auto reference = without.run();
  std::uint32_t crashes = 0;
  for (std::size_t c = 0; c < study.clouds.size(); ++c) {
    for (const sim::RunResult& run : cells[study.cell_index(0, c, 1)].runs) {
      crashes += run.instance_crashes;
    }
    const exp::StudyCell& copy = cells[study.cell_index(0, c, 2)];
    for (const exp::PairedDelta& d : {copy.makespan_delta, copy.cost_delta}) {
      EXPECT_EQ(d.mean, 0.0);
      EXPECT_EQ(d.half_width, 0.0);
    }
    const exp::StudyCell& base = cells[study.cell_index(0, c, 0)];
    const exp::StudyCell& alone = reference[without.cell_index(0, c, 0)];
    ASSERT_EQ(base.runs.size(), alone.runs.size());
    for (std::size_t r = 0; r < base.runs.size(); ++r) {
      const sim::RunResult& a = base.runs[r];
      const sim::RunResult& b = alone.runs[r];
      EXPECT_EQ(a.instance_crashes, 0u);
      EXPECT_EQ(a.makespan, b.makespan);
      EXPECT_EQ(a.cost_units, b.cost_units);
      EXPECT_EQ(a.busy_slot_seconds, b.busy_slot_seconds);
      EXPECT_EQ(a.ready_instance_seconds, b.ready_instance_seconds);
      EXPECT_EQ(a.control_ticks, b.control_ticks);
      ASSERT_EQ(a.task_records.size(), b.task_records.size());
      for (std::size_t t = 0; t < a.task_records.size(); ++t) {
        EXPECT_EQ(a.task_records[t].completed_at,
                  b.task_records[t].completed_at);
        EXPECT_EQ(a.task_records[t].instance, b.task_records[t].instance);
      }
    }
  }
  // The edit took effect in variant 1's own runs.
  EXPECT_GT(crashes, 0u);
}

TEST(Study, PairedDeltaIsAStudentTInterval) {
  const exp::PairedDelta d = exp::paired_delta({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(d.mean, 2.5);
  EXPECT_NEAR(d.stddev, std::sqrt(5.0 / 3.0), 1e-12);
  // t(0.975, 3) = 3.1824.
  EXPECT_NEAR(d.half_width, 3.1824 * std::sqrt(5.0 / 3.0) / 2.0, 1e-9);
  std::vector<double> alternating;
  for (int i = 0; i < 32; ++i) alternating.insert(alternating.end(), {0, 2});
  // t(0.975, 63) = 1.9983, past the table.
  EXPECT_NEAR(exp::paired_delta(alternating).half_width,
              1.9983 * std::sqrt(64.0 / 63.0) / 8.0, 1e-4);
  EXPECT_TRUE(std::isinf(exp::paired_delta({7.0}).half_width));
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
