// Integration tests of the run driver: full simulations under static and
// elastic policies, exactness under zero variability, billing consistency,
// determinism, and restart behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "dag/analysis.h"
#include "policies/baselines.h"
#include "sim/driver.h"
#include "sim/engine.h"
#include "util/check.h"
#include "workload/generators.h"
#include "workload/profiles.h"

namespace wire::sim {
namespace {

/// Cloud with no stochastic variability and free/instant transfers: actual
/// times equal the DAG's reference times exactly.
CloudConfig exact_cloud(double u, std::uint32_t slots = 4,
                        std::uint32_t max_instances = 12) {
  CloudConfig config;
  config.lag_seconds = 180.0;
  config.charging_unit_seconds = u;
  config.slots_per_instance = slots;
  config.max_instances = max_instances;
  config.variability.instance_speed_sigma = 0.0;
  config.variability.interference_sigma = 0.0;
  config.variability.transfer_noise_sigma = 0.0;
  config.variability.transfer_latency_seconds = 0.0;
  config.variability.bandwidth_mb_per_s = 1e12;
  return config;
}

TEST(Driver, SingleTaskSequentialExactness) {
  // One stage, one task of 100 s on a 1-slot instance: makespan 100 s.
  const dag::Workflow wf = workload::linear_workflow(1, 1, 100.0);
  policies::StaticPolicy policy(1);
  RunOptions options;
  options.initial_instances = 1;
  const RunResult r = simulate(wf, policy, exact_cloud(900.0, 1), options);
  EXPECT_DOUBLE_EQ(r.makespan, 100.0);
  EXPECT_DOUBLE_EQ(r.cost_units, 1.0);
  EXPECT_EQ(r.peak_instances, 1u);
  EXPECT_EQ(r.task_restarts, 0u);
}

TEST(Driver, SequentialPackingOnOneSlot) {
  // N=10 tasks of 50 s on one 1-slot instance: makespan 500 s.
  const dag::Workflow wf = workload::linear_workflow(1, 10, 50.0);
  policies::StaticPolicy policy(1);
  RunOptions options;
  options.initial_instances = 1;
  const RunResult r = simulate(wf, policy, exact_cloud(900.0, 1), options);
  EXPECT_DOUBLE_EQ(r.makespan, 500.0);
  EXPECT_DOUBLE_EQ(r.cost_units, 1.0);
  EXPECT_DOUBLE_EQ(r.busy_slot_seconds, 500.0);
}

TEST(Driver, ParallelStageUsesAllSlots) {
  // 8 tasks of 50 s on 2 instances x 4 slots: all run at once, makespan 50 s.
  const dag::Workflow wf = workload::linear_workflow(1, 8, 50.0);
  policies::StaticPolicy policy(2);
  RunOptions options;
  options.initial_instances = 2;
  const RunResult r = simulate(wf, policy, exact_cloud(900.0, 4), options);
  EXPECT_DOUBLE_EQ(r.makespan, 50.0);
  EXPECT_DOUBLE_EQ(r.cost_units, 2.0);
}

TEST(Driver, StageBarrierIsRespected) {
  // 2 stages x 4 tasks of 30 s, all-to-all: second stage starts only after
  // the first finishes. 4 slots -> each stage takes 30 s.
  const dag::Workflow wf = workload::linear_workflow(2, 4, 30.0);
  policies::StaticPolicy policy(1);
  RunOptions options;
  options.initial_instances = 1;
  const RunResult r = simulate(wf, policy, exact_cloud(900.0, 4), options);
  EXPECT_DOUBLE_EQ(r.makespan, 60.0);
  // Start times of stage-1 tasks must be >= 30.
  for (dag::TaskId t : wf.stage_tasks(1)) {
    EXPECT_GE(r.task_records[t].occupancy_start, 30.0);
  }
}

TEST(Driver, MakespanNeverBeatsCriticalPath) {
  const dag::Workflow wf =
      workload::make_workflow(workload::tpch1_profile(workload::Scale::Small),
                              7);
  policies::StaticPolicy policy(12, "full-site");
  RunOptions options;
  options.initial_instances = 12;
  options.seed = 3;
  const RunResult r = simulate(wf, policy, exact_cloud(900.0), options);
  EXPECT_GE(r.makespan, dag::critical_path_seconds(wf) - 1e-9);
  EXPECT_EQ(r.task_restarts, 0u);
}

TEST(Driver, AllTasksCompleteWithKickstartRecords) {
  const dag::Workflow wf =
      workload::make_workflow(workload::tpch6_profile(workload::Scale::Small),
                              7);
  policies::StaticPolicy policy(4);
  RunOptions options;
  options.initial_instances = 4;
  const RunResult r = simulate(wf, policy, exact_cloud(900.0), options);
  ASSERT_EQ(r.task_records.size(), wf.task_count());
  for (const TaskRuntime& rec : r.task_records) {
    EXPECT_EQ(rec.phase, TaskPhase::Completed);
    EXPECT_GE(rec.exec_time, 0.0);
    EXPECT_GE(rec.completed_at, 0.0);
    EXPECT_EQ(rec.attempts, 1u);
  }
}

TEST(Driver, DeterministicInSeed) {
  const dag::Workflow wf = workload::make_workflow(
      workload::pagerank_profile(workload::Scale::Small), 7);
  CloudConfig config = exact_cloud(900.0);
  config.variability = VariabilityConfig{};  // full stochastic model
  RunOptions options;
  options.seed = 99;
  options.initial_instances = 1;

  policies::PureReactivePolicy p1, p2;
  const RunResult a = simulate(wf, p1, config, options);
  const RunResult b = simulate(wf, p2, config, options);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.cost_units, b.cost_units);
  EXPECT_EQ(a.control_ticks, b.control_ticks);

  options.seed = 100;
  policies::PureReactivePolicy p3;
  const RunResult c = simulate(wf, p3, config, options);
  EXPECT_NE(a.makespan, c.makespan);
}

TEST(Driver, ReactiveGrowsFromOneInstance) {
  // A wide stage under pure-reactive: the pool must grow past 1.
  const dag::Workflow wf = workload::linear_workflow(1, 48, 400.0);
  policies::PureReactivePolicy policy;
  RunOptions options;
  options.initial_instances = 1;
  const RunResult r = simulate(wf, policy, exact_cloud(60.0), options);
  EXPECT_GT(r.peak_instances, 4u);
  EXPECT_LE(r.peak_instances, 12u);  // site cap respected
  // Faster than sequential on one instance (48*400/4 = 4800 s).
  EXPECT_LT(r.makespan, 4800.0);
}

TEST(Driver, SiteCapacityClipsGrowth) {
  const dag::Workflow wf = workload::linear_workflow(1, 200, 300.0);
  policies::PureReactivePolicy policy;
  RunOptions options;
  options.initial_instances = 1;
  CloudConfig config = exact_cloud(60.0);
  config.max_instances = 3;
  const RunResult r = simulate(wf, policy, config, options);
  EXPECT_LE(r.peak_instances, 3u);
}

TEST(Driver, ImmediateReleaseResubmitsRunningTasks) {
  // Pure-reactive shrinks immediately when the load collapses; a long
  // straggler stage forces releases with tasks in flight at least sometimes.
  // The invariant: every task still completes exactly once.
  const dag::Workflow wf = workload::linear_workflow(2, 24, 240.0);
  policies::PureReactivePolicy policy;
  RunOptions options;
  options.initial_instances = 1;
  const RunResult r = simulate(wf, policy, exact_cloud(60.0), options);
  for (const TaskRuntime& rec : r.task_records) {
    EXPECT_EQ(rec.phase, TaskPhase::Completed);
  }
  EXPECT_DOUBLE_EQ(r.busy_slot_seconds,
                   24 * 2 * 240.0);  // successful occupancy only
}

TEST(Driver, UtilizationIsAFraction) {
  const dag::Workflow wf = workload::make_workflow(
      workload::tpch1_profile(workload::Scale::Small), 7);
  policies::StaticPolicy policy(12, "full-site");
  RunOptions options;
  options.initial_instances = 12;
  const RunResult r = simulate(wf, policy, exact_cloud(60.0), options);
  EXPECT_GT(r.utilization, 0.0);
  EXPECT_LE(r.utilization, 1.0 + 1e-9);
}

TEST(Driver, PoolTimelineIsRecordedOnRequest) {
  const dag::Workflow wf = workload::linear_workflow(1, 16, 400.0);
  policies::PureReactivePolicy policy;
  RunOptions options;
  options.initial_instances = 1;
  options.record_pool_timeline = true;
  const RunResult r = simulate(wf, policy, exact_cloud(60.0), options);
  ASSERT_FALSE(r.pool_timeline.empty());
  EXPECT_DOUBLE_EQ(r.pool_timeline.front().time, 0.0);
  for (const PoolSample& s : r.pool_timeline) {
    EXPECT_LE(s.live_instances, 12u);
  }
}

/// Releases everything and never grows again: the run can make no progress,
/// which must trip the max_sim_seconds guard instead of looping forever.
class StallPolicy final : public ScalingPolicy {
 public:
  std::string name() const override { return "stall"; }
  void on_run_start(const dag::Workflow&, const CloudConfig&) override {}
  PoolCommand plan(const MonitorSnapshot& snapshot) override {
    PoolCommand cmd;
    for (const InstanceObservation& inst : snapshot.instances) {
      cmd.releases.push_back({inst.id, /*at_charge_boundary=*/false});
    }
    return cmd;
  }
};

TEST(Driver, StuckPolicyTripsMaxSimSeconds) {
  const dag::Workflow wf = workload::linear_workflow(1, 4, 100.0);
  StallPolicy policy;
  RunOptions options;
  options.initial_instances = 1;
  options.max_sim_seconds = 3600.0;
  EXPECT_THROW(simulate(wf, policy, exact_cloud(900.0), options),
               std::runtime_error);
}

TEST(Driver, MalformedMaxSimSecondsIsRejected) {
  // A NaN guard compares false against every event time, so a stuck policy
  // would run forever; the engine refuses it (and infinite or non-positive
  // guards) at construction.
  const dag::Workflow wf = workload::linear_workflow(1, 4, 100.0);
  StallPolicy policy;
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), 0.0,
                           -1.0}) {
    SCOPED_TRACE("max_sim_seconds=" + std::to_string(bad));
    RunOptions options;
    options.max_sim_seconds = bad;
    EXPECT_THROW(JobEngine(wf, policy, exact_cloud(900.0), options),
                 util::ContractViolation);
  }
}

TEST(Driver, CheckpointConfigThatCannotProgressIsRejected) {
  // A zero floor with a zero-size image commits a zero-length write and
  // re-fires it at the same instant forever (the max_sim_seconds guard never
  // trips); a NaN prior or floor makes every interval NaN. The engine
  // refuses such configs at construction. None of them is ever run.
  const dag::Workflow wf = workload::linear_workflow(1, 4, 100.0);
  StallPolicy policy;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  CloudConfig cloud = exact_cloud(900.0);
  cloud.checkpoint.channel_bandwidth_mb_per_s = 200.0;
  std::vector<CheckpointConfig> bad(10, cloud.checkpoint);
  bad[0].min_interval_seconds = 0.0;
  bad[1].min_interval_seconds = -1.0;
  bad[2].min_interval_seconds = nan;
  bad[3].default_size_mb = -1.0;
  bad[4].default_size_mb = nan;
  bad[5].hazard_prior_per_hour = nan;
  bad[6].hazard_prior_per_hour = -1.0;
  bad[7].hazard_prior_weight_hours = nan;
  bad[8].hazard_prior_weight_hours = -1.0;
  bad[9].interval_policy = CheckpointConfig::IntervalPolicy::Static;
  bad[9].static_interval_seconds = 0.0;
  for (std::size_t i = 0; i < bad.size(); ++i) {
    SCOPED_TRACE("bad checkpoint config #" + std::to_string(i));
    cloud.checkpoint = bad[i];
    EXPECT_THROW(JobEngine(wf, policy, cloud, RunOptions{}),
                 util::ContractViolation);
  }
  // Boundary values that do make progress stay accepted: a zero-size image,
  // a zero-weight prior, and any values at all while the channel is off.
  std::vector<CheckpointConfig> good(3, bad[0]);
  good[0].min_interval_seconds = 30.0;
  good[0].default_size_mb = 0.0;
  good[1].min_interval_seconds = 30.0;
  good[1].hazard_prior_weight_hours = 0.0;
  good[2].channel_bandwidth_mb_per_s = 0.0;
  for (std::size_t i = 0; i < good.size(); ++i) {
    SCOPED_TRACE("good checkpoint config #" + std::to_string(i));
    cloud.checkpoint = good[i];
    EXPECT_NO_THROW(JobEngine(wf, policy, cloud, RunOptions{}));
  }
}

TEST(Driver, PoolTimelineSamplesEveryControlTick) {
  const dag::Workflow wf = workload::linear_workflow(2, 8, 300.0);
  policies::PureReactivePolicy policy;
  RunOptions options;
  options.initial_instances = 1;
  options.record_pool_timeline = true;
  const RunResult r = simulate(wf, policy, exact_cloud(60.0), options);
  // One sample per control tick, in non-decreasing time order, and the live
  // count matches what the run actually peaked at.
  ASSERT_EQ(r.pool_timeline.size(), r.control_ticks);
  std::uint32_t peak = 0;
  for (std::size_t i = 0; i < r.pool_timeline.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(r.pool_timeline[i].time, r.pool_timeline[i - 1].time);
    }
    peak = std::max(peak, r.pool_timeline[i].live_instances);
  }
  EXPECT_EQ(peak, r.peak_instances);

  RunOptions without = options;
  without.record_pool_timeline = false;
  policies::PureReactivePolicy p2;
  EXPECT_TRUE(simulate(wf, p2, exact_cloud(60.0), without).pool_timeline.empty());
}

TEST(Driver, CostEqualsPerInstanceCeilings) {
  // 4 tasks of 1000 s on one 4-slot instance, u = 900: alive 1000 s -> 2
  // units exactly.
  const dag::Workflow wf = workload::linear_workflow(1, 4, 1000.0);
  policies::StaticPolicy policy(1);
  RunOptions options;
  options.initial_instances = 1;
  const RunResult r = simulate(wf, policy, exact_cloud(900.0), options);
  EXPECT_DOUBLE_EQ(r.makespan, 1000.0);
  EXPECT_DOUBLE_EQ(r.cost_units, 2.0);
}

}  // namespace
}  // namespace wire::sim
