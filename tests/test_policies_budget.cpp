// Differential chaos suite for the budget-constrained policy wrapper
// (policies::BudgetPolicy): budget-off runs must be byte-identical to
// unwrapped baselines, ample budgets must reproduce the unconstrained
// schedule bitwise, and under fault chaos the spend / progress / monotonicity
// invariants must hold across seeds (WIRE_FUZZ_SEED widens the seed set).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "ensemble/arbiter.h"
#include "exp/settings.h"
#include "policies/baselines.h"
#include "policies/budget.h"
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

/// cloud() plus the hostile fault model of the ensemble chaos suites:
/// crashes, provisioning failures, stragglers, transient task failures and
/// monitor dropouts all active.
sim::CloudConfig crashy() {
  sim::CloudConfig config = cloud();
  config.faults.crash_rate_per_hour = 0.6;
  config.faults.crash_notice_seconds = 120.0;
  config.faults.provision_failure_prob = 0.1;
  config.faults.straggler_prob = 0.15;
  config.faults.task_failure_prob = 0.05;
  config.faults.monitor_dropout_prob = 0.1;
  return config;
}

sim::RunResult run(const dag::Workflow& wf, sim::ScalingPolicy& policy,
                   const sim::CloudConfig& site, std::uint64_t seed) {
  sim::RunOptions options;
  options.seed = seed;
  options.initial_instances = 1;
  return sim::simulate(wf, policy, site, options);
}

BudgetOptions budget_of(double units, BudgetMode mode = BudgetMode::kHardCap,
                        double deadline = 0.0) {
  BudgetOptions options;
  options.budget_units = units;
  options.mode = mode;
  options.deadline_seconds = deadline;
  return options;
}

/// Hexfloat signature of the run's continuous outcome: any bit of drift in
/// any double shows up as a string diff (the "byte-identical" half of the
/// differential contract, readable in failure output).
std::string hex_signature(const sim::RunResult& r) {
  char buf[64];
  std::string sig;
  auto add = [&](double v) {
    std::snprintf(buf, sizeof(buf), "%a;", v);
    sig += buf;
  };
  add(r.makespan);
  add(r.cost_units);
  add(r.ready_instance_seconds);
  add(r.busy_slot_seconds);
  add(r.wasted_slot_seconds);
  add(r.utilization);
  for (const sim::TaskRuntime& t : r.task_records) {
    add(t.completed_at);
    add(t.exec_time);
    add(t.transfer_in_time);
  }
  return sig;
}

void expect_same_run(const sim::RunResult& a, const sim::RunResult& b,
                     bool include_name) {
  if (include_name) {
    EXPECT_EQ(a.policy_name, b.policy_name);
  }
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.cost_units, b.cost_units);
  EXPECT_EQ(a.ready_instance_seconds, b.ready_instance_seconds);
  EXPECT_EQ(a.busy_slot_seconds, b.busy_slot_seconds);
  EXPECT_EQ(a.wasted_slot_seconds, b.wasted_slot_seconds);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.peak_instances, b.peak_instances);
  EXPECT_EQ(a.task_restarts, b.task_restarts);
  EXPECT_EQ(a.control_ticks, b.control_ticks);
  EXPECT_EQ(a.task_faults, b.task_faults);
  EXPECT_EQ(a.instance_crashes, b.instance_crashes);
  EXPECT_EQ(a.provision_failures, b.provision_failures);
  EXPECT_EQ(a.quarantined_tasks, b.quarantined_tasks);
  EXPECT_EQ(hex_signature(a), hex_signature(b));
  ASSERT_EQ(a.task_records.size(), b.task_records.size());
  for (std::size_t i = 0; i < a.task_records.size(); ++i) {
    const sim::TaskRuntime& ta = a.task_records[i];
    const sim::TaskRuntime& tb = b.task_records[i];
    EXPECT_EQ(ta.phase, tb.phase) << "task " << i;
    EXPECT_EQ(ta.completed_at, tb.completed_at) << "task " << i;
    EXPECT_EQ(ta.exec_time, tb.exec_time) << "task " << i;
    EXPECT_EQ(ta.instance, tb.instance) << "task " << i;
    EXPECT_EQ(ta.attempts, tb.attempts) << "task " << i;
  }
}

/// Every non-quarantined task completed — the no-livelock check (a stuck
/// budget floor would leave Pending/Ready records behind).
void expect_complete(const sim::RunResult& r) {
  for (std::size_t i = 0; i < r.task_records.size(); ++i) {
    const bool quarantined =
        std::find(r.quarantined_tasks.begin(), r.quarantined_tasks.end(),
                  static_cast<dag::TaskId>(i)) != r.quarantined_tasks.end();
    if (!quarantined) {
      EXPECT_EQ(r.task_records[i].phase, sim::TaskPhase::Completed)
          << "task " << i << " never completed";
    }
  }
}

// ---------------------------------------------------------------------------
// Construction and naming.
// ---------------------------------------------------------------------------

TEST(Budget, RejectsInvalidOptions) {
  EXPECT_THROW(BudgetPolicy(nullptr, budget_of(10.0)),
               util::ContractViolation);
  EXPECT_THROW(BudgetPolicy(std::make_unique<PureReactivePolicy>(),
                            budget_of(-1.0)),
               util::ContractViolation);
  // Enabled deadline-aware budgeting needs a positive deadline...
  EXPECT_THROW(BudgetPolicy(std::make_unique<PureReactivePolicy>(),
                            budget_of(10.0, BudgetMode::kDeadlineAware, 0.0)),
               util::ContractViolation);
  // ...but the disabled sentinel does not (mode is irrelevant when off).
  EXPECT_NO_THROW(BudgetPolicy(std::make_unique<PureReactivePolicy>(),
                               budget_of(0.0, BudgetMode::kDeadlineAware)));
}

TEST(Budget, NameIsPassthroughWhenDisabledAndTaggedWhenEnabled) {
  BudgetPolicy off(std::make_unique<PureReactivePolicy>(), budget_of(0.0));
  EXPECT_EQ(off.name(), PureReactivePolicy().name());
  EXPECT_FALSE(off.enabled());

  BudgetPolicy hard(std::make_unique<PureReactivePolicy>(), budget_of(24.0));
  EXPECT_EQ(hard.name(), PureReactivePolicy().name() + "+budget-hard-24");
  EXPECT_TRUE(hard.enabled());
  EXPECT_FALSE(hard.exhausted());
  EXPECT_EQ(hard.remaining_units(), 24.0);

  BudgetPolicy taper(std::make_unique<PureReactivePolicy>(),
                     budget_of(8.0, BudgetMode::kLinearTaper));
  EXPECT_EQ(taper.name(), PureReactivePolicy().name() + "+budget-taper-8");

  BudgetPolicy dl(std::make_unique<PureReactivePolicy>(),
                  budget_of(8.0, BudgetMode::kDeadlineAware, 3600.0));
  EXPECT_EQ(dl.name(), PureReactivePolicy().name() + "+budget-deadline-8");
}

// ---------------------------------------------------------------------------
// The budget-off identity contract: wrapping any baseline with the zero
// sentinel must not move a single byte of the run, fault chaos included.
// ---------------------------------------------------------------------------

TEST(Budget, DisabledIsBytePassthrough) {
  const std::vector<dag::Workflow> workflows = {
      workload::make_workflow(workload::tpch6_profile(workload::Scale::Small),
                              7),
      workload::make_workflow(
          workload::pagerank_profile(workload::Scale::Small), 7)};
  for (exp::PolicyKind kind :
       {exp::PolicyKind::PureReactive, exp::PolicyKind::ReactiveConserving,
        exp::PolicyKind::Wire}) {
    for (std::size_t w = 0; w < workflows.size(); ++w) {
      SCOPED_TRACE(std::string("policy=") + exp::policy_label(kind) +
                   " workflow=" + std::to_string(w));
      auto bare = exp::make_policy(kind);
      const sim::RunResult reference = run(workflows[w], *bare, cloud(), 3);
      BudgetPolicy wrapped(exp::make_policy(kind), budget_of(0.0));
      const sim::RunResult off = run(workflows[w], wrapped, cloud(), 3);
      expect_same_run(reference, off, /*include_name=*/true);
    }
  }
}

TEST(Budget, DisabledIsBytePassthroughUnderFaultChaos) {
  const dag::Workflow wf = workload::make_workflow(
      workload::tpch6_profile(workload::Scale::Small), 7);
  for (std::uint64_t seed : {5ull, 11ull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    auto bare = exp::make_policy(exp::PolicyKind::Wire);
    const sim::RunResult reference = run(wf, *bare, crashy(), seed);
    BudgetPolicy wrapped(exp::make_policy(exp::PolicyKind::Wire),
                         budget_of(0.0));
    const sim::RunResult off = run(wf, wrapped, crashy(), seed);
    expect_same_run(reference, off, /*include_name=*/true);
  }
}

TEST(Budget, DisabledFactoryMatchesPlainFactory) {
  const dag::Workflow wf = workload::make_workflow(
      workload::pagerank_profile(workload::Scale::Small), 7);
  auto plain =
      exp::sharded_policy_factory(exp::PolicyKind::ReactiveConserving);
  auto budgeted = exp::sharded_budget_policy_factory(
      exp::PolicyKind::ReactiveConserving, budget_of(0.0));
  auto a = plain(0);
  auto b = budgeted(0);
  expect_same_run(run(wf, *a, cloud(), 7), run(wf, *b, cloud(), 7),
                  /*include_name=*/true);
}

// ---------------------------------------------------------------------------
// Ample budgets: the constraint never binds, so the schedule (everything but
// the policy name) reproduces the unconstrained run bit for bit.
// ---------------------------------------------------------------------------

TEST(Budget, AmpleBudgetReproducesUnconstrainedSchedule) {
  const dag::Workflow wf = workload::make_workflow(
      workload::tpch6_profile(workload::Scale::Small), 7);
  for (exp::PolicyKind kind :
       {exp::PolicyKind::ReactiveConserving, exp::PolicyKind::Wire}) {
    SCOPED_TRACE(std::string("policy=") + exp::policy_label(kind));
    auto bare = exp::make_policy(kind);
    const sim::RunResult reference = run(wf, *bare, cloud(), 3);
    BudgetPolicy ample(exp::make_policy(kind), budget_of(1e6));
    const sim::RunResult constrained = run(wf, ample, cloud(), 3);
    expect_same_run(reference, constrained, /*include_name=*/false);
    EXPECT_NE(reference.policy_name, constrained.policy_name);
    EXPECT_FALSE(ample.exhausted());
  }
}

TEST(Budget, AmpleBudgetReproducesUnconstrainedScheduleUnderChaos) {
  const dag::Workflow wf = workload::make_workflow(
      workload::pagerank_profile(workload::Scale::Small), 7);
  auto bare = exp::make_policy(exp::PolicyKind::Wire);
  const sim::RunResult reference = run(wf, *bare, crashy(), 11);
  BudgetPolicy ample(exp::make_policy(exp::PolicyKind::Wire),
                     budget_of(1e6));
  const sim::RunResult constrained = run(wf, ample, crashy(), 11);
  expect_same_run(reference, constrained, /*include_name=*/false);
}

// ---------------------------------------------------------------------------
// Spend invariants. Feasible budgets are derived from an unconstrained probe
// run (a budget the job *can* meet), so the bound is meaningful: projected
// enforcement keeps the bill within budget plus one charging-unit quantum of
// projection slack. Under crash chaos the monitoring mirror can under-count
// each crashed instance by at most one unit (it dies between control ticks),
// so the allowance widens by one unit per crash; a run that was driven to
// exhaustion is additionally allowed its minimum-progress floor burn (one
// instance to the end of the run).
// ---------------------------------------------------------------------------

void spend_property(const dag::Workflow& wf, const sim::CloudConfig& site,
                    std::uint64_t seed, double budget_scale) {
  auto probe = exp::make_policy(exp::PolicyKind::Wire);
  const sim::RunResult unconstrained = run(wf, *probe, site, seed);
  const double budget = std::ceil(unconstrained.cost_units * budget_scale);
  ASSERT_GT(budget, 0.0);

  BudgetPolicy policy(exp::make_policy(exp::PolicyKind::Wire),
                      budget_of(budget));
  const sim::RunResult r = run(wf, policy, site, seed);
  expect_complete(r);

  const double u = site.charging_unit_seconds;
  double allowance = 1.0 + static_cast<double>(r.instance_crashes);
  if (policy.exhausted()) allowance += std::ceil(r.makespan / u);
  EXPECT_LE(r.cost_units, budget + allowance)
      << "seed " << seed << " scale " << budget_scale << ": billed "
      << r.cost_units << " against budget " << budget << " (unconstrained "
      << unconstrained.cost_units << ", crashes " << r.instance_crashes
      << ", exhausted " << policy.exhausted() << ")";
  EXPECT_GT(policy.committed_units(), 0.0);
}

TEST(Budget, SpendStaysWithinFeasibleBudget) {
  const dag::Workflow wf = workload::make_workflow(
      workload::tpch6_profile(workload::Scale::Small), 7);
  for (double scale : {1.0, 0.8}) {
    SCOPED_TRACE("scale=" + std::to_string(scale));
    spend_property(wf, cloud(), 3, scale);
  }
}

TEST(BudgetChaos, SpendInvariantHoldsAcrossSeeds) {
  const dag::Workflow wf = workload::make_workflow(
      workload::tpch6_profile(workload::Scale::Small), 7);
  for (std::uint64_t seed : {5ull, 11ull, 29ull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    spend_property(wf, crashy(), seed, 0.9);
  }
}

/// Same property on a seed taken from the environment — the fuzz hook shared
/// with the fault suites: WIRE_FUZZ_SEED=<n> ctest -R BudgetChaos.
TEST(BudgetChaos, EnvironmentSeedRuns) {
  const char* env = std::getenv("WIRE_FUZZ_SEED");
  if (env == nullptr) {
    GTEST_SKIP() << "WIRE_FUZZ_SEED not set";
  }
  const std::uint64_t seed = std::strtoull(env, nullptr, 10);
  SCOPED_TRACE("WIRE_FUZZ_SEED=" + std::to_string(seed));
  std::printf("fuzzing budget spend invariant with seed %llu\n",
              static_cast<unsigned long long>(seed));
  const dag::Workflow wf = workload::make_workflow(
      workload::tpch6_profile(workload::Scale::Small), 7);
  spend_property(wf, crashy(), seed, 0.9);
  spend_property(wf, crashy(), seed, 1.0);
}

// ---------------------------------------------------------------------------
// Exhaustion: a budget far below the cheapest possible run must degrade to
// the minimum-progress floor — the run still completes (no livelock), the
// pool collapses, and the overrun is the floor's burn rather than unbounded.
// ---------------------------------------------------------------------------

TEST(Budget, ExhaustionDegradesToMinimumProgress) {
  const dag::Workflow wf = workload::linear_workflow(1, 64, 300.0);
  auto bare = exp::make_policy(exp::PolicyKind::Wire);
  const sim::RunResult unconstrained = run(wf, *bare, cloud(), 3);

  BudgetPolicy policy(exp::make_policy(exp::PolicyKind::Wire),
                      budget_of(2.0));
  const sim::RunResult r = run(wf, policy, cloud(), 3);
  expect_complete(r);
  EXPECT_TRUE(policy.exhausted());
  EXPECT_EQ(policy.remaining_units(), 0.0);
  EXPECT_GT(r.cost_units, 2.0);  // the permitted floor overrun
  // The floor bound: one instance to the end of the run, plus the unit of
  // projection slack.
  EXPECT_LE(r.cost_units,
            2.0 + std::ceil(r.makespan / cloud().charging_unit_seconds) + 1.0);
  EXPECT_LT(r.peak_instances, unconstrained.peak_instances);
  EXPECT_GT(r.makespan, unconstrained.makespan);
}

TEST(BudgetChaos, ExhaustionStillCompletesUnderFaults) {
  const dag::Workflow wf = workload::make_workflow(
      workload::tpch6_profile(workload::Scale::Small), 7);
  BudgetPolicy policy(exp::make_policy(exp::PolicyKind::Wire),
                      budget_of(2.0));
  const sim::RunResult r = run(wf, policy, crashy(), 11);
  expect_complete(r);
  EXPECT_TRUE(policy.exhausted());
}

// ---------------------------------------------------------------------------
// Monotonicity: on the deterministic quiet site, a larger budget can only
// help — its makespan never exceeds a smaller budget's (small multiplicative
// slack for charge-boundary discretization).
// ---------------------------------------------------------------------------

TEST(Budget, MakespanMonotoneInBudget) {
  const dag::Workflow wf = workload::linear_workflow(1, 64, 300.0);
  double previous = 0.0;
  for (double budget : {6.0, 12.0, 24.0, 48.0, 96.0}) {
    BudgetPolicy policy(exp::make_policy(exp::PolicyKind::ReactiveConserving),
                        budget_of(budget));
    const sim::RunResult r = run(wf, policy, cloud(), 3);
    expect_complete(r);
    if (previous > 0.0) {
      EXPECT_LE(r.makespan, previous * 1.05) << "budget " << budget;
    }
    previous = r.makespan;
  }
}

// ---------------------------------------------------------------------------
// Mode shaping.
// ---------------------------------------------------------------------------

TEST(Budget, TaperThrottlesBeforeTheWall) {
  const dag::Workflow wf = workload::linear_workflow(1, 64, 300.0);
  auto probe = exp::make_policy(exp::PolicyKind::ReactiveConserving);
  const double budget = std::ceil(run(wf, *probe, cloud(), 3).cost_units);

  BudgetPolicy hard(exp::make_policy(exp::PolicyKind::ReactiveConserving),
                    budget_of(budget));
  const sim::RunResult hard_run = run(wf, hard, cloud(), 3);
  BudgetPolicy taper(exp::make_policy(exp::PolicyKind::ReactiveConserving),
                     budget_of(budget, BudgetMode::kLinearTaper));
  const sim::RunResult taper_run = run(wf, taper, cloud(), 3);

  expect_complete(hard_run);
  expect_complete(taper_run);
  // The taper spends the same budget more gradually: never a taller pool
  // than the hard cap's full-tilt run. Deceleration stretches the run (the
  // shrinking pool churns through charge quanta less efficiently), so the
  // bill may pass the budget — but only by the minimum-progress floor tail,
  // like any exhausted run.
  EXPECT_LE(taper_run.peak_instances, hard_run.peak_instances);
  double allowance = 1.0;
  if (taper.exhausted()) {
    allowance += std::ceil(taper_run.makespan / cloud().charging_unit_seconds);
  }
  EXPECT_LE(taper_run.cost_units, budget + allowance);
  EXPECT_GE(taper_run.makespan, hard_run.makespan);
}

TEST(Budget, DeadlineAwarePacesSpendToTheSlack) {
  const dag::Workflow wf = workload::linear_workflow(1, 64, 300.0);
  auto probe = exp::make_policy(exp::PolicyKind::ReactiveConserving);
  const sim::RunResult unconstrained = run(wf, *probe, cloud(), 3);
  const double budget = std::ceil(unconstrained.cost_units);
  const double loose = 3.0 * unconstrained.makespan;

  BudgetPolicy paced(exp::make_policy(exp::PolicyKind::ReactiveConserving),
                     budget_of(budget, BudgetMode::kDeadlineAware, loose));
  const sim::RunResult paced_run = run(wf, paced, cloud(), 3);
  expect_complete(paced_run);
  // With triple the slack the pacer runs a smaller pool for longer: cheaper
  // than the all-out run, still inside the deadline.
  EXPECT_LT(paced_run.cost_units, unconstrained.cost_units);
  EXPECT_LT(paced_run.peak_instances, unconstrained.peak_instances);
  EXPECT_LE(paced_run.makespan, loose * 1.1);
  EXPECT_GE(paced_run.makespan, unconstrained.makespan);

  // A deadline with no slack degenerates to (at most) the all-out schedule.
  BudgetPolicy tight(exp::make_policy(exp::PolicyKind::ReactiveConserving),
                     budget_of(budget, BudgetMode::kDeadlineAware,
                               unconstrained.makespan));
  const sim::RunResult tight_run = run(wf, tight, cloud(), 3);
  expect_complete(tight_run);
  EXPECT_LE(tight_run.makespan, paced_run.makespan);
}

// ---------------------------------------------------------------------------
// The demand-signal surface: plan() must publish remaining budget on the
// command (the arbiter's third bidding axis) and keep the minimum-progress
// floor from an empty pool.
// ---------------------------------------------------------------------------

sim::MonitorSnapshot empty_pool_snapshot(const dag::Workflow& wf) {
  sim::MonitorSnapshot snapshot;
  snapshot.now = 0.0;
  snapshot.tasks.resize(wf.task_count());
  snapshot.tasks[0].phase = sim::TaskPhase::Ready;
  snapshot.tasks[0].ready_since = 0.0;
  snapshot.ready_queue.push_back(0);
  snapshot.incomplete_tasks = static_cast<std::uint32_t>(wf.task_count());
  return snapshot;
}

TEST(Budget, PlanPublishesTheRemainingBudgetSignal) {
  const dag::Workflow wf = workload::linear_workflow(1, 8, 100.0);

  BudgetPolicy off(std::make_unique<PureReactivePolicy>(), budget_of(0.0));
  off.on_run_start(wf, cloud());
  const sim::PoolCommand off_cmd = off.plan(empty_pool_snapshot(wf));
  EXPECT_EQ(off_cmd.remaining_budget_units, -1.0);  // passthrough: unreported

  BudgetPolicy on(std::make_unique<PureReactivePolicy>(), budget_of(12.0));
  on.on_run_start(wf, cloud());
  const sim::PoolCommand on_cmd = on.plan(empty_pool_snapshot(wf));
  EXPECT_EQ(on_cmd.remaining_budget_units, 12.0);  // nothing committed yet
  EXPECT_GE(on_cmd.desired_pool, 1u);
  EXPECT_GE(on_cmd.grow, 1u);  // work remains, pool empty: must boot
}

/// Scripted inner policy: replays one fixed command every tick, so the
/// wrapper's enforcement can be driven through hand-built pool states the
/// engine rarely surfaces at tick instants (in-flight boots, reclaimed
/// drains).
class ScriptedPolicy final : public sim::ScalingPolicy {
 public:
  explicit ScriptedPolicy(sim::PoolCommand cmd) : cmd_(std::move(cmd)) {}
  std::string name() const override { return "scripted"; }
  void on_run_start(const dag::Workflow&, const sim::CloudConfig&) override {}
  sim::PoolCommand plan(const sim::MonitorSnapshot&) override { return cmd_; }

 private:
  sim::PoolCommand cmd_;
};

TEST(Budget, EnforcementTightensInTheDocumentedOrder) {
  // Pool: two ready rows (recharging at 30 s and 45 s), one boot in flight,
  // one draining row the inner command reclaims, plus two grow requests.
  // Committed spend is 3 units (the drain is a billed row too) against a
  // budget of 3, so enforcement must strip the command down in the
  // documented order — reclaimed drain first, then grows, then the boot
  // (immediate release), then the soonest-recharge ready row (boundary
  // release) — stopping at the one-instance floor.
  sim::PoolCommand inner_cmd;
  inner_cmd.grow = 2;
  inner_cmd.cancel_drains.push_back(3);
  BudgetPolicy policy(std::make_unique<ScriptedPolicy>(inner_cmd),
                      budget_of(3.0));
  const dag::Workflow wf = workload::linear_workflow(1, 8, 100.0);
  policy.on_run_start(wf, cloud());

  sim::MonitorSnapshot snapshot;
  snapshot.now = 30.0;
  snapshot.incomplete_tasks = 8;
  auto add_instance = [&](sim::InstanceId id, bool provisioning,
                          double ready_at, double ttc, bool draining) {
    sim::InstanceObservation inst;
    inst.id = id;
    inst.provisioning = provisioning;
    inst.ready_at = ready_at;
    inst.time_to_next_charge = ttc;
    inst.draining = draining;
    inst.free_slots = 4;
    snapshot.instances.push_back(inst);
  };
  add_instance(0, false, 0.0, 30.0, false);   // ready, recharges first
  add_instance(1, false, 15.0, 45.0, false);  // ready, recharges later
  add_instance(2, true, 70.0, 0.0, false);    // boot in flight
  add_instance(3, false, 0.0, 50.0, true);    // draining, reclaimed by inner

  const sim::PoolCommand cmd = policy.plan(snapshot);
  // Three billed rows (two ready + the draining one), 1 unit each; only the
  // provisioning boot is free until it lands.
  EXPECT_EQ(policy.committed_units(), 3.0);
  EXPECT_TRUE(cmd.cancel_drains.empty());    // reclaim dropped first
  EXPECT_EQ(cmd.grow, 0u);                   // grows cut second
  ASSERT_EQ(cmd.releases.size(), 2u);
  EXPECT_EQ(cmd.releases[0].instance, 2u);   // boot cancelled third...
  EXPECT_FALSE(cmd.releases[0].at_charge_boundary);  // ...immediately
  EXPECT_EQ(cmd.releases[1].instance, 0u);   // soonest-recharge ready row...
  EXPECT_TRUE(cmd.releases[1].at_charge_boundary);   // ...drains at boundary
  EXPECT_EQ(cmd.desired_pool, 1u);           // the minimum-progress floor
  EXPECT_EQ(cmd.remaining_budget_units, 0.0);
}

TEST(Budget, FloorBootsFromAnEmptyPool) {
  // An inner command with no pool at all while work remains: the wrapper
  // must boot the minimum-progress instance even though the budget cannot
  // pay for it.
  BudgetPolicy policy(std::make_unique<ScriptedPolicy>(sim::PoolCommand{}),
                      budget_of(1.0));
  const dag::Workflow wf = workload::linear_workflow(1, 8, 100.0);
  policy.on_run_start(wf, cloud());
  sim::MonitorSnapshot snapshot;
  snapshot.now = 0.0;
  snapshot.incomplete_tasks = 8;
  const sim::PoolCommand cmd = policy.plan(snapshot);
  EXPECT_EQ(cmd.grow, 1u);
  EXPECT_EQ(cmd.desired_pool, 1u);
}

TEST(Budget, ExhaustedPlanReportsZeroAndKeepsTheFloor) {
  const dag::Workflow wf = workload::linear_workflow(1, 8, 100.0);
  BudgetPolicy policy(std::make_unique<PureReactivePolicy>(), budget_of(1.0));
  policy.on_run_start(wf, cloud());

  // One ready instance alive for ten charging units: committed spend 10 >> 1.
  sim::MonitorSnapshot snapshot = empty_pool_snapshot(wf);
  snapshot.now = 600.0;
  sim::InstanceObservation inst;
  inst.id = 0;
  inst.provisioning = false;
  inst.ready_at = 0.0;
  inst.time_to_next_charge = 60.0;
  inst.free_slots = 4;
  snapshot.instances.push_back(inst);

  const sim::PoolCommand cmd = policy.plan(snapshot);
  EXPECT_TRUE(policy.exhausted());
  EXPECT_EQ(policy.remaining_units(), 0.0);
  EXPECT_EQ(cmd.remaining_budget_units, 0.0);  // exhausted is a real report
  // The floor: the single instance survives enforcement.
  EXPECT_TRUE(cmd.releases.empty());
  EXPECT_EQ(cmd.desired_pool, 1u);
}

TEST(BudgetArbitration, TinyPositiveBudgetStillOutbidsExhaustion) {
  // The fixed-point rounding regression: a tenant with remaining budget
  // just above 0 (here 1/64 of a charging unit — llround(units * 16) == 0)
  // must bid ABOVE the documented exhausted floor, not be starved at
  // weight 0 like a tenant whose money is actually gone. Pre-fix, tenant 1
  // below rounds to weight 0: with only zero-weight bidders left the spare
  // capacity is withheld entirely ("capacity waits") and the solvent
  // tenant is pinned at its floor share.
  std::vector<ensemble::TenantDemand> tenants(2);
  tenants[0].job = 0;
  tenants[0].arrival_seconds = 0.0;
  tenants[0].live_instances = 1;
  tenants[0].requested_pool = 4;
  tenants[0].remaining_budget_units = 0.0;  // genuinely exhausted
  tenants[1].job = 1;
  tenants[1].arrival_seconds = 10.0;
  tenants[1].live_instances = 1;
  tenants[1].requested_pool = 4;
  tenants[1].remaining_budget_units = 1.0 / 64.0;  // nearly broke, solvent
  const std::vector<std::uint32_t> shares = ensemble::allocate_shares(
      ensemble::ArbiterStrategy::BudgetWeighted, ensemble::ArbiterConfig{8},
      tenants);
  ASSERT_EQ(shares.size(), 2u);
  // The exhausted tenant keeps only what it holds; the solvent one's
  // fixed-point weight is floored at 1, so its full unmet demand is funded
  // (it is the only solvent bidder and the spare covers it).
  EXPECT_EQ(shares[0], 1u);
  EXPECT_EQ(shares[1], 4u);

  // The floor must not disturb the existing rounding anywhere above it: a
  // tenant at or above 1/32 of a unit rounds to a nonzero weight already,
  // and an unreported tenant (-1) still bids as one unit (weight 16).
  tenants[1].remaining_budget_units = -1.0;
  const std::vector<std::uint32_t> unreported = ensemble::allocate_shares(
      ensemble::ArbiterStrategy::BudgetWeighted, ensemble::ArbiterConfig{8},
      tenants);
  EXPECT_EQ(unreported[1], 4u);
}

}  // namespace
}  // namespace wire::policies
