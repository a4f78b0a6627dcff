// Tests for the deadline-aware policy extension.
#include <gtest/gtest.h>

#include "policies/baselines.h"
#include "policies/deadline.h"
#include "predict/history.h"
#include "sim/driver.h"
#include "util/check.h"
#include "workload/generators.h"
#include "workload/profiles.h"

namespace wire::policies {
namespace {

sim::CloudConfig cloud(double u = 60.0, double lag = 60.0) {
  sim::CloudConfig config;
  config.lag_seconds = lag;
  config.charging_unit_seconds = u;
  config.slots_per_instance = 4;
  config.max_instances = 12;
  config.variability.instance_speed_sigma = 0.0;
  config.variability.interference_sigma = 0.0;
  config.variability.transfer_noise_sigma = 0.0;
  config.variability.transfer_latency_seconds = 0.0;
  return config;
}

sim::RunResult run_with_deadline(const dag::Workflow& wf, double deadline,
                                 std::uint64_t seed = 3) {
  DeadlinePolicy policy(deadline);
  sim::RunOptions options;
  options.seed = seed;
  options.initial_instances = 1;
  return sim::simulate(wf, policy, cloud(), options);
}

TEST(Deadline, RejectsNonPositiveDeadline) {
  EXPECT_THROW(DeadlinePolicy(0.0), util::ContractViolation);
  EXPECT_THROW(DeadlinePolicy(-5.0), util::ContractViolation);
}

TEST(Deadline, NameCarriesTheTarget) {
  EXPECT_EQ(DeadlinePolicy(1800.0).name(), "deadline-1800");
}

TEST(Deadline, TightDeadlineScalesOut) {
  // 64 x 300 s tasks = 19200 slot-seconds. A 900 s deadline needs ~21 slots
  // (and the boot lag eats into it), so the pool must grow well past one.
  const dag::Workflow wf = workload::linear_workflow(1, 64, 300.0);
  const sim::RunResult r = run_with_deadline(wf, 900.0);
  EXPECT_GE(r.peak_instances, 5u);
  EXPECT_LE(r.makespan, 1.35 * 900.0);  // meets the SLO within slack
}

TEST(Deadline, LooseDeadlineStaysCheap) {
  // The same workload with a 6 h deadline fits on very few instances.
  const dag::Workflow wf = workload::linear_workflow(1, 64, 300.0);
  const sim::RunResult loose = run_with_deadline(wf, 21600.0);
  const sim::RunResult tight = run_with_deadline(wf, 900.0);
  EXPECT_LT(loose.peak_instances, tight.peak_instances);
  EXPECT_LT(loose.cost_units, tight.cost_units);
  EXPECT_LE(loose.makespan, 21600.0);
}

TEST(Deadline, CostMonotoneInDeadline) {
  const dag::Workflow wf = workload::make_workflow(
      workload::tpch1_profile(workload::Scale::Large), 7);
  double previous_cost = 0.0;
  for (double deadline : {600.0, 1800.0, 7200.0}) {
    const sim::RunResult r = run_with_deadline(wf, deadline);
    if (previous_cost > 0.0) {
      EXPECT_LE(r.cost_units, previous_cost * 1.15)
          << "deadline " << deadline;
    }
    previous_cost = r.cost_units;
    for (const sim::TaskRuntime& rec : r.task_records) {
      EXPECT_EQ(rec.phase, sim::TaskPhase::Completed);
    }
  }
}

TEST(Deadline, PastDeadlineGoesAllOut) {
  // A deadline shorter than a single task: the policy goes to the useful
  // maximum (one slot per task: 32/4 = 8 instances, below the site cap) and
  // still completes.
  const dag::Workflow wf = workload::linear_workflow(1, 32, 500.0);
  const sim::RunResult r = run_with_deadline(wf, 100.0);
  EXPECT_EQ(r.peak_instances, 8u);
  for (const sim::TaskRuntime& rec : r.task_records) {
    EXPECT_EQ(rec.phase, sim::TaskPhase::Completed);
  }
}

TEST(Deadline, RevokingInstanceIsNotStableCapacity) {
  // Past the deadline the target is the useful maximum: 8 tasks / 4 slots =
  // 2 instances. Of the two Ready instances one is under a revocation
  // notice, so only one counts as stable capacity: grow one replacement and
  // never hand the doomed instance back as a release victim.
  const dag::Workflow wf = workload::linear_workflow(1, 8, 300.0);
  DeadlinePolicy policy(100.0);
  policy.on_run_start(wf, cloud());
  sim::MonitorSnapshot snap;
  snap.now = 200.0;
  snap.tasks.assign(8, sim::TaskObservation{});
  for (dag::TaskId t = 0; t < 8; ++t) {
    snap.tasks[t].phase = sim::TaskPhase::Ready;
    snap.tasks[t].ready_since = 0.0;
    snap.ready_queue.push_back(t);
  }
  snap.incomplete_tasks = 8;
  for (sim::InstanceId id = 0; id < 2; ++id) {
    sim::InstanceObservation inst;
    inst.id = id;
    inst.ready_at = 0.0;
    inst.time_to_next_charge = 10.0;
    inst.free_slots = 4;
    snap.instances.push_back(inst);
  }
  snap.instances[1].revoking = true;
  snap.instances[1].revoke_at = 230.0;
  const sim::PoolCommand cmd = policy.plan(snap);
  EXPECT_EQ(cmd.grow, 1u);
  EXPECT_TRUE(cmd.releases.empty());
}

TEST(Deadline, AheadOfScheduleReleases) {
  // A heavy wide burst then a narrow serial tail, with a deadline that
  // forces scale-out for the burst but is comfortably met afterwards: the
  // pool must grow for the burst and shrink during the tail.
  dag::WorkflowBuilder builder("burst-tail");
  const auto s0 = builder.add_stage("burst");
  std::vector<dag::TaskId> burst;
  for (int i = 0; i < 64; ++i) {
    burst.push_back(
        builder.add_task(s0, "b" + std::to_string(i), 0, 0, 240.0, {}));
  }
  const auto s1 = builder.add_stage("tail");
  dag::TaskId prev = builder.add_task(s1, "t0", 0, 0, 60.0, burst);
  for (int i = 1; i < 10; ++i) {
    prev = builder.add_task(s1, "t" + std::to_string(i), 0, 0, 60.0, {prev});
  }
  const dag::Workflow wf = builder.build();

  DeadlinePolicy policy(2400.0);
  sim::RunOptions options;
  options.seed = 3;
  options.initial_instances = 1;
  options.record_pool_timeline = true;
  const sim::RunResult r = sim::simulate(wf, policy, cloud(), options);
  std::uint32_t peak = 0;
  for (const sim::PoolSample& s : r.pool_timeline) {
    peak = std::max(peak, s.live_instances);
  }
  EXPECT_GE(peak, 2u);
  EXPECT_LT(r.pool_timeline.back().live_instances, peak);
  EXPECT_LE(r.makespan, 2400.0);
}

TEST(Deadline, HistoryArchiveCoversUnstartedStages) {
  // Deep DAG (12 sequential PageRank stages): online estimates see no work
  // in unstarted stages (policy 1), so the controller under-provisions and
  // misses SLOs that a history-backed estimate meets.
  const dag::Workflow wf = workload::make_workflow(
      workload::pagerank_profile(workload::Scale::Small), 7);

  StaticPolicy full_site(12, "full-site");
  sim::RunOptions prior_options;
  prior_options.seed = 1;
  prior_options.initial_instances = 12;
  const sim::RunResult prior =
      sim::simulate(wf, full_site, cloud(), prior_options);
  const auto archive =
      std::make_shared<const std::vector<predict::HistoryRecord>>(
          predict::history_from_records(prior.task_records));

  const double deadline = prior.makespan * 1.6;
  DeadlinePolicy with_history(deadline, archive);
  EXPECT_EQ(with_history.name(),
            "deadline-history-" +
                std::to_string(static_cast<long>(deadline)));
  sim::RunOptions options;
  options.seed = 2;
  options.initial_instances = 1;
  const sim::RunResult r = sim::simulate(wf, with_history, cloud(), options);
  EXPECT_LE(r.makespan, deadline);
  for (const sim::TaskRuntime& rec : r.task_records) {
    EXPECT_EQ(rec.phase, sim::TaskPhase::Completed);
  }
}

}  // namespace
}  // namespace wire::policies
