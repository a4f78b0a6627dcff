// Cross-module integration tests: serialization round-trips through full
// simulations, paper-matrix orderings, end-to-end prediction accuracy, and
// the epigenomics elasticity story.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "core/controller.h"
#include "dag/analysis.h"
#include "dag/serialize.h"
#include "exp/prediction_harness.h"
#include "exp/runner.h"
#include "exp/settings.h"
#include "metrics/report.h"
#include "policies/baselines.h"
#include "sim/driver.h"
#include "util/stats.h"
#include "workload/generators.h"
#include "workload/profiles.h"

namespace wire {
namespace {

TEST(Integration, SerializedWorkflowRunsIdentically) {
  const dag::Workflow original = workload::make_workflow(
      workload::tpch1_profile(workload::Scale::Small), 7);
  const dag::Workflow parsed = dag::from_string(dag::to_string(original));

  const sim::CloudConfig config = exp::paper_cloud(900.0);
  sim::RunOptions options;
  options.seed = 17;
  options.initial_instances = 1;

  core::WireController a, b;
  const sim::RunResult ra = sim::simulate(original, a, config, options);
  const sim::RunResult rb = sim::simulate(parsed, b, config, options);
  EXPECT_DOUBLE_EQ(ra.makespan, rb.makespan);
  EXPECT_DOUBLE_EQ(ra.cost_units, rb.cost_units);
  EXPECT_EQ(ra.peak_instances, rb.peak_instances);
}

TEST(Integration, PaperMatrixOrderingsHold) {
  // One repetition of the §IV-C matrix on the two TPCH-6 runs: the classic
  // orderings must hold — full-site fastest and most expensive at small u,
  // wire cheapest at u >= 15 min.
  const exp::Study study = exp::paper_study(
      {workload::make_workflow(
           workload::tpch6_profile(workload::Scale::Small), 7),
       workload::make_workflow(
           workload::tpch6_profile(workload::Scale::Large), 7)},
      /*repetitions=*/1);
  const auto cells = study.run();
  ASSERT_EQ(cells.size(), 2u * 4u * 4u);

  const auto units = exp::paper_charging_units();
  const auto policies = exp::all_policies();
  const auto cell = [&](std::size_t wf, exp::PolicyKind policy,
                        double unit) -> const exp::StudyCell& {
    return cells[study.cell_index(
        wf, std::find(units.begin(), units.end(), unit) - units.begin(),
        std::find(policies.begin(), policies.end(), policy) -
            policies.begin())];
  };

  for (std::size_t wf : {0u, 1u}) {
    // Full-site is never slower than wire (it starts at peak capacity).
    for (double u : exp::paper_charging_units()) {
      EXPECT_LE(
          cell(wf, exp::PolicyKind::FullSite, u).stats.makespan_seconds.mean(),
          cell(wf, exp::PolicyKind::Wire, u).stats.makespan_seconds.mean() *
              1.25)
          << "wf=" << wf << " u=" << u;
    }
    // Wire is cheaper than full-site at every unit >= 15 min.
    for (double u : {900.0, 1800.0, 3600.0}) {
      EXPECT_LT(cell(wf, exp::PolicyKind::Wire, u).stats.cost_units.mean(),
                cell(wf, exp::PolicyKind::FullSite, u).stats.cost_units.mean())
          << "wf=" << wf << " u=" << u;
    }
  }
}

TEST(Integration, EpigenomicsElasticityStory) {
  // The paper's flagship: a 1 -> 100 -> 1 width profile. WIRE must grow the
  // pool for the wide wave and shrink it afterwards.
  const dag::Workflow wf = workload::make_workflow(
      workload::epigenomics_profile(workload::Scale::Small), 7);
  core::WireController controller;
  sim::RunOptions options;
  options.seed = 1;
  options.initial_instances = 1;
  options.record_pool_timeline = true;
  const sim::RunResult r =
      sim::simulate(wf, controller, exp::paper_cloud(60.0), options);

  EXPECT_GE(r.peak_instances, 6u);  // grew for the 100-wide wave
  ASSERT_GE(r.pool_timeline.size(), 3u);
  // The pool shrinks again once the wave passes: the last sample is well
  // below the peak.
  std::uint32_t peak_sample = 0;
  for (const sim::PoolSample& s : r.pool_timeline) {
    peak_sample = std::max(peak_sample, s.live_instances);
  }
  EXPECT_LT(r.pool_timeline.back().live_instances, peak_sample);
  // And the run beats sequential execution comfortably.
  EXPECT_LT(r.makespan, wf.aggregate_ref_exec_seconds() / 2.0);
}

TEST(Integration, EndToEndPredictionAccuracyOnGenome) {
  // The fig4 pipeline in miniature: ground-truth full-site run -> stage
  // replay -> error statistics. The wide genome stages must predict well.
  const dag::Workflow wf = workload::make_workflow(
      workload::epigenomics_profile(workload::Scale::Small), 7);
  policies::StaticPolicy full_site(12, "full-site");
  sim::RunOptions options;
  options.seed = 23;
  options.initial_instances = 12;
  const sim::RunResult truth =
      sim::simulate(wf, full_site, exp::paper_cloud(900.0), options);

  std::vector<double> actual(wf.task_count());
  for (dag::TaskId t = 0; t < wf.task_count(); ++t) {
    actual[t] = truth.task_records[t].exec_time;
  }

  // The "map" stage: 100 long tasks.
  dag::StageId map_stage = dag::kInvalidStage;
  for (const dag::StageSpec& s : wf.stages()) {
    if (s.name == "map") map_stage = s.id;
  }
  ASSERT_NE(map_stage, dag::kInvalidStage);

  util::CdfBuilder rel_errors;
  for (const exp::StageReplay& replay :
       exp::replay_stage_random_orders(wf, map_stage, actual, 3, 99)) {
    for (std::size_t i = 0; i < replay.actual.size(); ++i) {
      rel_errors.add(metrics::relative_true_error(replay.predicted_ready[i],
                                                  replay.actual[i]));
    }
  }
  // The paper reports ~83 % of long-stage tasks within 15 % relative error;
  // the wide, block-quantized map stage should clear a conservative bar.
  EXPECT_GE(rel_errors.fraction_within(0.15), 0.70);
  EXPECT_LE(std::abs(rel_errors.quantile(0.5)), 0.05);
}

TEST(Integration, WireCostScalesWithChargingUnitNotWork) {
  // For a fixed workload, wire's *cost in units* must fall as units grow
  // (fewer, larger units) while the billed wall-time (units * u) stays
  // within a small factor — the "best bang for the buck" contract.
  const dag::Workflow wf = workload::make_workflow(
      workload::pagerank_profile(workload::Scale::Small), 7);
  std::vector<double> billed_seconds;
  double previous_units = 1e18;
  for (double u : exp::paper_charging_units()) {
    core::WireController controller;
    sim::RunOptions options;
    options.seed = 4;
    options.initial_instances = 1;
    const sim::RunResult r =
        sim::simulate(wf, controller, exp::paper_cloud(u), options);
    EXPECT_LE(r.cost_units, previous_units);
    previous_units = r.cost_units;
    billed_seconds.push_back(r.cost_units * u);
  }
  const double lo =
      *std::min_element(billed_seconds.begin(), billed_seconds.end());
  const double hi =
      *std::max_element(billed_seconds.begin(), billed_seconds.end());
  EXPECT_LE(hi / lo, 6.0);
}

TEST(Integration, DagFileRoundTripOnDisk) {
  const dag::Workflow wf = workload::make_workflow(
      workload::tpch6_profile(workload::Scale::Small), 7);
  const std::string path = "test_roundtrip.wire-dag";
  {
    std::ofstream out(path);
    dag::write_workflow(out, wf);
  }
  std::ifstream in(path);
  const dag::Workflow parsed = dag::read_workflow(in);
  EXPECT_EQ(parsed.task_count(), wf.task_count());
  EXPECT_DOUBLE_EQ(parsed.aggregate_ref_exec_seconds(),
                   wf.aggregate_ref_exec_seconds());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wire
