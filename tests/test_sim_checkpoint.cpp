// Tests for the checkpointing extension: salvage bookkeeping, shortened
// re-execution, the restart-cost discount in the steering policies, and the
// checkpoint-off goldens.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/controller.h"
#include "core/steering.h"
#include "ensemble/driver.h"
#include "ensemble/report.h"
#include "exp/settings.h"
#include "policies/baselines.h"
#include "sim/driver.h"
#include "sim/framework.h"
#include "util/rng.h"
#include "workload/generators.h"
#include "workload/profiles.h"

namespace wire::sim {
namespace {

TEST(Checkpoint, SalvageRecordedOnKill) {
  const dag::Workflow wf = workload::linear_workflow(1, 2, 100.0);
  FrameworkMaster fm(wf, 5, /*checkpoint_fraction=*/0.5);
  fm.register_instance(0, 2);
  const dag::TaskId t = fm.pop_ready();
  fm.on_dispatch(t, 0, 0, 0.0);
  fm.on_transfer_in_done(t, 2.0);
  // Killed after 40 s of execution: half is salvaged.
  fm.resubmit_tasks_on(0, 42.0);
  EXPECT_DOUBLE_EQ(fm.runtime(t).salvaged_exec, 20.0);
  // A second, later kill can only raise the salvage.
  const dag::TaskId again = fm.pop_ready();
  (void)again;
  fm.on_dispatch(t, 0, 0, 50.0);
  fm.on_transfer_in_done(t, 52.0);
  fm.resubmit_tasks_on(0, 62.0);  // only 10 s this time
  EXPECT_DOUBLE_EQ(fm.runtime(t).salvaged_exec, 20.0);  // kept the max
}

TEST(Checkpoint, NoSalvageWhenDisabled) {
  const dag::Workflow wf = workload::linear_workflow(1, 1, 100.0);
  FrameworkMaster fm(wf, 5, /*checkpoint_fraction=*/0.0);
  fm.register_instance(0, 1);
  const dag::TaskId t = fm.pop_ready();
  fm.on_dispatch(t, 0, 0, 0.0);
  fm.on_transfer_in_done(t, 0.0);
  fm.resubmit_tasks_on(0, 50.0);
  EXPECT_DOUBLE_EQ(fm.runtime(t).salvaged_exec, 0.0);
}

TEST(Checkpoint, KilledTaskResumesFaster) {
  // One 100 s task; a policy kills the instance at the first tick (t = 40)
  // and replaces it. With perfect checkpointing the task resumes with ~60 s
  // remaining; without, it restarts from scratch.
  class KillOnce final : public ScalingPolicy {
   public:
    std::string name() const override { return "kill-once"; }
    void on_run_start(const dag::Workflow&, const CloudConfig&) override {
      fired_ = false;
    }
    PoolCommand plan(const MonitorSnapshot& snapshot) override {
      PoolCommand cmd;
      if (!fired_ && snapshot.now >= 40.0) {
        fired_ = true;
        for (const InstanceObservation& inst : snapshot.instances) {
          cmd.releases.push_back(Release{inst.id, false});
        }
        cmd.grow = 1;
      }
      return cmd;
    }

   private:
    bool fired_ = false;
  };

  const dag::Workflow wf = workload::linear_workflow(1, 1, 100.0);
  CloudConfig config;
  config.lag_seconds = 40.0;
  config.charging_unit_seconds = 600.0;
  config.slots_per_instance = 1;
  config.variability.instance_speed_sigma = 0.0;
  config.variability.interference_sigma = 0.0;
  config.variability.transfer_noise_sigma = 0.0;
  config.variability.transfer_latency_seconds = 0.0;

  RunOptions options;
  options.initial_instances = 1;

  KillOnce no_ckpt;
  const RunResult plain = simulate(wf, no_ckpt, config, options);
  // Kill at 40, replacement ready at 80, full re-run: 180 s.
  EXPECT_DOUBLE_EQ(plain.makespan, 180.0);
  EXPECT_EQ(plain.task_restarts, 1u);

  config.checkpoint_fraction = 1.0;
  KillOnce full_ckpt;
  const RunResult ckpt = simulate(wf, full_ckpt, config, options);
  // Replacement ready at 80, only 60 s remain: 140 s.
  EXPECT_DOUBLE_EQ(ckpt.makespan, 140.0);

  config.checkpoint_fraction = 0.5;
  KillOnce half_ckpt;
  const RunResult half = simulate(wf, half_ckpt, config, options);
  EXPECT_DOUBLE_EQ(half.makespan, 160.0);  // 20 s salvaged
}

TEST(Checkpoint, SteeringDiscountsRestartCosts) {
  // An instance whose task has sunk 300 s: protected at 0.2u = 180 without
  // checkpointing, releasable with a 0.9 checkpoint fraction (residual 30).
  core::LookaheadResult lookahead;  // empty load -> p = 1
  sim::MonitorSnapshot snap;
  snap.incomplete_tasks = 2;
  snap.tasks.assign(2, TaskObservation{});
  snap.tasks[0].phase = TaskPhase::Running;
  snap.tasks[0].elapsed = 250.0;
  for (InstanceId id = 0; id < 2; ++id) {
    InstanceObservation inst;
    inst.id = id;
    inst.time_to_next_charge = 50.0;
    if (id == 0) inst.running_tasks = {0};
    snap.instances.push_back(inst);
  }
  CloudConfig config;
  config.lag_seconds = 180.0;
  config.charging_unit_seconds = 900.0;

  const PoolCommand plain = core::steer(lookahead, snap, config);
  ASSERT_EQ(plain.releases.size(), 1u);  // only the idle instance qualifies
  EXPECT_EQ(plain.releases[0].instance, 1u);

  config.checkpoint_fraction = 0.9;
  const PoolCommand ckpt = core::steer(lookahead, snap, config);
  // With 90 % salvage both instances qualify; p = 1 keeps one.
  EXPECT_EQ(ckpt.releases.size(), 1u);
  // The busy instance now has the LOWER effective cost ((250+50)*0.1 = 30 vs
  // the idle instance's 0) — victims are still cheapest-first, so the idle
  // one goes; but a p = 0 plan would take both. Verify eligibility directly:
  sim::MonitorSnapshot only_busy = snap;
  only_busy.instances.erase(only_busy.instances.begin() + 1);
  const PoolCommand busy_only = core::steer(lookahead, only_busy, config);
  EXPECT_TRUE(busy_only.releases.empty());  // p = 1 == m, nothing to do
  only_busy.incomplete_tasks = 1;
  // Force a shrink attempt by adding a second copy of the busy instance.
  sim::InstanceObservation clone = snap.instances[0];
  clone.id = 5;
  only_busy.instances.push_back(clone);
  const PoolCommand shrink = core::steer(lookahead, only_busy, config);
  ASSERT_EQ(shrink.releases.size(), 1u);  // a busy instance IS releasable now
}

// Four canonical checkpoint-off cells, digests captured on the build just
// before the checkpoint scheduling subsystem landed. With
// CheckpointConfig::enabled() false everywhere below, the engine must
// reproduce these bytes exactly; any drift means the subsystem leaked into
// the baseline simulation.
constexpr std::uint64_t kGoldenSeedRoot = 717;

std::string digest_run(const char* name, const RunResult& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "%s makespan=%a cost=%a busy=%a wasted=%a ready=%a "
                "restarts=%u faults=%u crashes=%u oom=%u",
                name, r.makespan, r.cost_units, r.busy_slot_seconds,
                r.wasted_slot_seconds, r.ready_instance_seconds,
                r.task_restarts, r.task_faults, r.instance_crashes,
                r.oom_kills);
  return buf;
}

RunResult wire_run(const dag::Workflow& wf, const CloudConfig& config,
                   std::uint64_t stream) {
  core::WireController controller;
  RunOptions options;
  options.seed = util::derive_seed(kGoldenSeedRoot, stream);
  options.initial_instances = 1;
  return simulate(wf, controller, config, options);
}

dag::Workflow pagerank_large() {
  return workload::make_workflow(
      workload::pagerank_profile(workload::Scale::Large), 7);
}

TEST(CheckpointOffGolden, Quiet) {
  EXPECT_EQ(digest_run("quiet",
                       wire_run(pagerank_large(), exp::paper_cloud(60.0), 0)),
            "quiet makespan=0x1.e7fb05c36087cp+11 cost=0x1.e2p+7 "
            "busy=0x1.c58615098a2dbp+14 wasted=0x0p+0 "
            "ready=0x1.bcdb05c36087cp+13 "
            "restarts=0 faults=0 crashes=0 oom=0");
}

TEST(CheckpointOffGolden, LegacyFractionUnderFaults) {
  CloudConfig config = exp::paper_cloud(60.0);
  config.checkpoint_fraction = 0.5;
  config.faults.crash_rate_per_hour = 2.0;
  config.faults.task_failure_prob = 0.05;
  EXPECT_EQ(digest_run("legacy_faults",
                       wire_run(pagerank_large(), config, 11)),
            "legacy_faults makespan=0x1.10928f149de01p+12 cost=0x1.cep+7 "
            "busy=0x1.ba54178951969p+14 wasted=0x1.0274b03983fafp+11 "
            "ready=0x1.ac7a3f46fc22cp+13 restarts=20 faults=14 crashes=6 "
            "oom=0");
}

TEST(CheckpointOffGolden, MemoryAndFaults) {
  const dag::Workflow wf = workload::make_workflow(
      workload::epigenomics_profile(workload::Scale::Small), 3);
  CloudConfig config = exp::paper_cloud(900.0);
  config.memory.instance_mem_mb = 4096.0;
  config.memory.noise_sigma = 0.2;
  config.faults.crash_rate_per_hour = 1.0;
  EXPECT_EQ(digest_run("memory_faults", wire_run(wf, config, 22)),
            "memory_faults makespan=0x1.869cf4e947085p+12 cost=0x1.2p+3 "
            "busy=0x1.326af3cae10c2p+13 wasted=0x1.159c2f6794604p+10 "
            "ready=0x1.deed1f9545b4ap+12 restarts=2 faults=0 crashes=2 "
            "oom=35");
}

TEST(CheckpointOffGolden, DemandWeightedEnsemble) {
  ensemble::PoissonArrivalConfig stream;
  stream.mean_interarrival_seconds = 300.0;
  stream.job_count = 50;
  stream.seed = 1905;
  const std::vector<workload::WorkflowProfile> profiles = {
      workload::tpch1_profile(workload::Scale::Small),
      workload::tpch6_profile(workload::Scale::Small),
      workload::pagerank_profile(workload::Scale::Small),
      workload::epigenomics_profile(workload::Scale::Small)};
  const CloudConfig site = exp::paper_cloud(900.0);
  ensemble::EnsembleOptions options;
  options.strategy = ensemble::ArbiterStrategy::DemandWeighted;
  options.site_cap = site.max_instances;
  ensemble::EnsembleDriver driver(
      profiles, ensemble::ArrivalProcess::poisson(stream, profiles.size()),
      exp::sharded_policy_factory(exp::PolicyKind::Wire), site, options);
  const ensemble::EnsembleReport report = driver.run();
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "ensemble slowdown_mean=%a slowdown_max=%a cost=%a util=%a "
                "tput=%a",
                report.mean_slowdown, report.max_slowdown,
                report.total_cost_units, report.site_utilization,
                report.throughput_jobs_per_hour);
  EXPECT_EQ(std::string(buf),
            "ensemble slowdown_mean=0x1.09903ce5fdb31p+0 "
            "slowdown_max=0x1.43103c1c64d77p+0 cost=0x1.b4p+6 "
            "util=0x1.2d30e57586034p-2 tput=0x1.4af5ecc80ac16p+3");
}

}  // namespace
}  // namespace wire::sim
