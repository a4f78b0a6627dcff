// Fault-injection chaos suite (sim/faults.*).
//
// Properties pinned here, per the fault substrate's contract:
//   - under combined crash / provision-failure / straggler / transient-task
//     / monitor-dropout injection, every non-quarantined task completes
//     exactly once and every quarantined task is reported;
//   - billing invariants hold: instances that never became Ready are never
//     charged, crashed/terminated instances stop accruing at their
//     termination time, and the run's cost is exactly the per-instance sum;
//   - the incremental MonitorStore matches the from-scratch
//     oracle::rebuild_snapshot field-for-field after every injected fault;
//   - identical seeds reproduce identical FaultTraces byte-for-byte;
//   - retry/backoff/quarantine semantics are exact for deterministic rates;
//   - WIRE's steering survives fault injection without stranding a workflow;
//   - the predictor's robust harvest ignores failed attempts, and the
//     harvest_failed_attempts ablation measurably contaminates it.
//
// Every randomized test announces its seed via SCOPED_TRACE (see DESIGN.md,
// "Randomized tests print their seeds"); WIRE_FUZZ_SEED adds one extra
// environment-chosen chaos seed (the CI faults-fuzz job sets it to a
// time-derived value and echoes it into the log).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/controller.h"
#include "oracle/snapshot_oracle.h"
#include "policies/baselines.h"
#include "predict/task_predictor.h"
#include "sim/driver.h"
#include "sim/engine.h"
#include "sim/faults.h"
#include "workload/generators.h"

namespace wire::sim {
namespace {

/// High rates on a small site: every fault class fires many times per run.
CloudConfig hostile_cloud() {
  CloudConfig config;
  config.lag_seconds = 30.0;
  config.charging_unit_seconds = 120.0;
  config.slots_per_instance = 2;
  config.max_instances = 6;
  config.faults.crash_rate_per_hour = 20.0;
  config.faults.crash_notice_seconds = 20.0;
  config.faults.provision_failure_prob = 0.2;
  config.faults.straggler_prob = 0.3;
  config.faults.straggler_lag_multiplier = 2.5;
  config.faults.task_failure_prob = 0.15;
  config.faults.monitor_dropout_prob = 0.2;
  config.retry.max_attempts = 3;
  config.retry.backoff_base_seconds = 5.0;
  config.retry.backoff_factor = 2.0;
  return config;
}

void expect_observation_eq(const TaskObservation& got,
                           const TaskObservation& want) {
  EXPECT_EQ(static_cast<int>(got.phase), static_cast<int>(want.phase));
  EXPECT_EQ(got.input_mb, want.input_mb);
  EXPECT_EQ(got.ready_since, want.ready_since);
  EXPECT_EQ(got.occupancy_start, want.occupancy_start);
  EXPECT_EQ(got.elapsed, want.elapsed);
  EXPECT_EQ(got.elapsed_exec, want.elapsed_exec);
  EXPECT_EQ(got.transfer_in_time, want.transfer_in_time);
  EXPECT_EQ(got.instance, want.instance);
  EXPECT_EQ(got.exec_time, want.exec_time);
  EXPECT_EQ(got.transfer_time, want.transfer_time);
  EXPECT_EQ(got.attempts, want.attempts);
  EXPECT_EQ(got.failed_attempts, want.failed_attempts);
  EXPECT_EQ(got.last_failed_elapsed, want.last_failed_elapsed);
  EXPECT_EQ(got.checkpointed_exec, want.checkpointed_exec);
}

void expect_instance_eq(const InstanceObservation& got,
                        const InstanceObservation& want) {
  EXPECT_EQ(got.id, want.id);
  EXPECT_EQ(got.provisioning, want.provisioning);
  EXPECT_EQ(got.ready_at, want.ready_at);
  EXPECT_EQ(got.time_to_next_charge, want.time_to_next_charge);
  EXPECT_EQ(got.draining, want.draining);
  EXPECT_EQ(got.revoking, want.revoking);
  EXPECT_EQ(got.revoke_at, want.revoke_at);
  EXPECT_EQ(got.running_tasks, want.running_tasks);
  EXPECT_EQ(got.free_slots, want.free_slots);
}

void expect_snapshot_eq(const MonitorSnapshot& got,
                        const MonitorSnapshot& want) {
  EXPECT_EQ(got.now, want.now);
  EXPECT_EQ(got.incomplete_tasks, want.incomplete_tasks);
  EXPECT_EQ(got.pool_cap, want.pool_cap);
  EXPECT_EQ(got.ready_queue, want.ready_queue);
  ASSERT_EQ(got.tasks.size(), want.tasks.size());
  for (std::size_t t = 0; t < got.tasks.size(); ++t) {
    SCOPED_TRACE("task " + std::to_string(t));
    expect_observation_eq(got.tasks[t], want.tasks[t]);
  }
  ASSERT_EQ(got.instances.size(), want.instances.size());
  for (std::size_t i = 0; i < got.instances.size(); ++i) {
    SCOPED_TRACE("instance row " + std::to_string(i));
    expect_instance_eq(got.instances[i], want.instances[i]);
  }
}

/// Ground-truth billing invariants after a finished run.
void expect_billing_invariants(const CloudPool& cloud, const RunResult& r) {
  double charged = 0.0;
  for (const Instance& inst : cloud.instances()) {
    const double units = cloud.charged_units(inst.id, r.makespan);
    charged += units;
    if (inst.state == InstanceState::Terminated &&
        inst.terminated_at <= inst.ready_at) {
      // Provision failures (and boots released mid-flight) were never Ready:
      // never billed.
      EXPECT_EQ(units, 0.0) << "charged never-ready instance " << inst.id;
    }
    if (inst.state == InstanceState::Terminated) {
      // A crashed/terminated instance stops accruing at its end time.
      EXPECT_EQ(units, cloud.charged_units(inst.id, inst.terminated_at))
          << "instance " << inst.id << " accrued charge after termination";
    }
  }
  EXPECT_NEAR(r.cost_units, charged, 1e-9);
}

/// Exactly-once completion: every task is either Completed (once) or
/// journaled as quarantined, never both, never neither.
void expect_exactly_once_completion(const dag::Workflow& wf,
                                    const RunResult& r) {
  ASSERT_EQ(r.task_records.size(), wf.task_count());
  EXPECT_TRUE(std::is_sorted(r.quarantined_tasks.begin(),
                             r.quarantined_tasks.end()));
  std::size_t quarantined = 0;
  for (dag::TaskId t = 0; t < static_cast<dag::TaskId>(wf.task_count());
       ++t) {
    const TaskRuntime& rec = r.task_records[t];
    const bool listed = std::binary_search(r.quarantined_tasks.begin(),
                                           r.quarantined_tasks.end(), t);
    if (rec.quarantined) {
      ++quarantined;
      EXPECT_TRUE(listed) << "quarantined task " << t << " not reported";
      EXPECT_NE(static_cast<int>(rec.phase),
                static_cast<int>(TaskPhase::Completed));
      // Transitively poisoned descendants never ran; only the quarantine
      // root is guaranteed to have burned attempts.
    } else {
      EXPECT_FALSE(listed);
      EXPECT_EQ(static_cast<int>(rec.phase),
                static_cast<int>(TaskPhase::Completed))
          << "task " << t << " neither completed nor quarantined";
    }
  }
  EXPECT_EQ(quarantined, r.quarantined_tasks.size());
}

/// The result's per-kind counters must agree with the journal.
void expect_trace_counts(const RunResult& r) {
  const auto count = [&](FaultKind kind) {
    std::uint32_t n = 0;
    for (const FaultEvent& e : r.fault_trace) {
      if (e.kind == kind) ++n;
    }
    return n;
  };
  EXPECT_EQ(r.task_faults, count(FaultKind::TaskFault));
  EXPECT_EQ(r.instance_crashes, count(FaultKind::InstanceCrash));
  EXPECT_EQ(r.provision_failures, count(FaultKind::ProvisionFailure));
  EXPECT_EQ(r.straggler_boots, count(FaultKind::StragglerBoot));
  EXPECT_EQ(r.monitor_dropouts, count(FaultKind::MonitorDropout));
  EXPECT_EQ(static_cast<std::uint32_t>(r.quarantined_tasks.size()),
            count(FaultKind::TaskQuarantine));
}

/// One chaos run: a reactive policy (grow/release churn) over a random
/// layered DAG on the hostile cloud, stepping event-by-event and
/// cross-checking the incremental monitor against the from-scratch rebuild
/// the whole way. Returns the run's rendered FaultTrace for replay checks.
std::string run_chaos(std::uint64_t seed, RunResult* out = nullptr) {
  const dag::Workflow wf =
      workload::random_layered(workload::RandomDagOptions{}, seed);
  const CloudConfig config = hostile_cloud();
  policies::PureReactivePolicy policy;
  RunOptions options;
  options.seed = seed + 101;
  options.initial_instances = 1;
  options.max_sim_seconds = 3.0e6;

  JobEngine engine(wf, policy, config, options);
  engine.start();
  std::uint64_t steps = 0;
  while (!engine.done()) {
    // Bound the run in events, not only sim time, so a stuck retry loop
    // fails fast with the seed in the trace.
    EXPECT_LT(steps, 400000u) << "chaos run failed to converge";
    if (steps >= 400000u) break;
    const SimTime t = engine.next_event_time();
    engine.step();
    ++steps;
    if (engine.done()) break;
    SCOPED_TRACE("after event at t=" + std::to_string(t));
    expect_snapshot_eq(engine.peek_monitor(t),
                       oracle::rebuild_snapshot(engine, config, t));
  }

  RunResult r = engine.result();
  expect_exactly_once_completion(wf, r);
  expect_billing_invariants(engine.cloud(), r);
  expect_trace_counts(r);
  const std::string trace = render_fault_trace(r.fault_trace);
  if (out != nullptr) *out = std::move(r);
  return trace;
}

class FaultChaos : public ::testing::TestWithParam<int> {};

TEST_P(FaultChaos, InjectedFaultsPreserveAllInvariants) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  SCOPED_TRACE("chaos seed " + std::to_string(seed));
  RunResult r;
  const std::string trace = run_chaos(seed, &r);
  // The hostile rates make a fault-free run essentially impossible; an empty
  // trace would mean the injection never engaged.
  EXPECT_FALSE(r.fault_trace.empty());
  // Identical seeds replay the identical fault schedule byte-for-byte.
  EXPECT_EQ(trace, run_chaos(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultChaos, ::testing::Range(0, 8));

TEST(FaultChaos, EnvironmentSeedRuns) {
  // CI chaos: WIRE_FUZZ_SEED (echoed in the job log) adds one
  // environment-chosen seed on top of the fixed sweep.
  const char* env = std::getenv("WIRE_FUZZ_SEED");
  if (env == nullptr) GTEST_SKIP() << "WIRE_FUZZ_SEED not set";
  const std::uint64_t seed = std::strtoull(env, nullptr, 10);
  SCOPED_TRACE("WIRE_FUZZ_SEED=" + std::to_string(seed));
  std::printf("running fault chaos with WIRE_FUZZ_SEED=%llu\n",
              static_cast<unsigned long long>(seed));
  run_chaos(seed);
}

TEST(Faults, DisabledModelLeavesNoTrace) {
  const dag::Workflow wf = workload::linear_workflow(2, 3, 10.0);
  policies::StaticPolicy policy(2);
  RunOptions options;
  options.initial_instances = 2;
  const RunResult r = simulate(wf, policy, CloudConfig{}, options);
  EXPECT_TRUE(r.fault_trace.empty());
  EXPECT_EQ(r.task_faults, 0u);
  EXPECT_EQ(r.instance_crashes, 0u);
  EXPECT_EQ(r.provision_failures, 0u);
  EXPECT_EQ(r.straggler_boots, 0u);
  EXPECT_EQ(r.monitor_dropouts, 0u);
  EXPECT_TRUE(r.quarantined_tasks.empty());
  EXPECT_EQ(render_fault_trace(r.fault_trace),
            "time,kind,subject,attempt,detail\n");
}

TEST(Faults, CertainFailureExhaustsRetriesAndQuarantinesTheDag) {
  // task_failure_prob = 1 with no other faults: every root attempt dies
  // mid-execution, retries back off exponentially, and after max_attempts
  // the root is quarantined together with every descendant (whose
  // predecessors can now never complete). The run ends with zero
  // completions.
  const dag::Workflow wf = workload::linear_workflow(2, 2, 50.0);
  CloudConfig config;
  config.lag_seconds = 30.0;
  config.charging_unit_seconds = 120.0;
  config.slots_per_instance = 2;
  config.faults.task_failure_prob = 1.0;
  config.retry.max_attempts = 3;
  config.retry.backoff_base_seconds = 5.0;
  config.retry.backoff_factor = 2.0;
  policies::StaticPolicy policy(1);
  RunOptions options;
  options.seed = 3;
  options.initial_instances = 1;

  const RunResult r = simulate(wf, policy, config, options);
  ASSERT_EQ(r.quarantined_tasks.size(), wf.task_count());
  expect_exactly_once_completion(wf, r);
  expect_trace_counts(r);
  // Both roots burn their full retry budget; descendants never start.
  EXPECT_EQ(r.task_faults, 2u * config.retry.max_attempts);
  for (const TaskRuntime& rec : r.task_records) {
    EXPECT_NE(static_cast<int>(rec.phase),
              static_cast<int>(TaskPhase::Completed));
  }

  // Backoff spacing: consecutive failures of one task are separated by at
  // least the scheduled backoff (base * factor^(k-1)) — the re-run time adds
  // on top.
  for (dag::TaskId task : wf.roots()) {
    std::vector<const FaultEvent*> faults;
    for (const FaultEvent& e : r.fault_trace) {
      if (e.kind == FaultKind::TaskFault && e.subject == task) {
        faults.push_back(&e);
      }
    }
    ASSERT_EQ(faults.size(), static_cast<std::size_t>(
                                 config.retry.max_attempts));
    for (std::size_t k = 1; k < faults.size(); ++k) {
      EXPECT_EQ(faults[k]->attempt, static_cast<std::uint32_t>(k + 1));
      const double backoff =
          config.retry.backoff_base_seconds *
          std::pow(config.retry.backoff_factor, static_cast<double>(k - 1));
      EXPECT_GE(faults[k]->time, faults[k - 1]->time + backoff);
    }
  }
}

TEST(Faults, TotalMonitorDropoutStillCompletes) {
  // Every control tick's delta withheld: the controller must survive on
  // non-exact snapshots alone (RunState and the predictor fall back to full
  // scans) and the coalesced journal must keep the store consistent.
  const dag::Workflow wf = workload::random_layered(
      workload::RandomDagOptions{}, /*seed=*/5);
  SCOPED_TRACE("dag seed 5");
  CloudConfig config;
  config.lag_seconds = 30.0;
  config.charging_unit_seconds = 120.0;
  config.slots_per_instance = 2;
  config.max_instances = 6;
  config.faults.monitor_dropout_prob = 1.0;
  core::WireController controller;
  RunOptions options;
  options.seed = 17;
  options.initial_instances = 1;

  JobEngine engine(wf, controller, config, options);
  engine.start();
  while (!engine.done()) {
    const SimTime t = engine.next_event_time();
    engine.step();
    if (engine.done()) break;
    SCOPED_TRACE("after event at t=" + std::to_string(t));
    expect_snapshot_eq(engine.peek_monitor(t),
                       oracle::rebuild_snapshot(engine, config, t));
  }
  const RunResult r = engine.result();
  EXPECT_TRUE(r.quarantined_tasks.empty());
  for (const TaskRuntime& rec : r.task_records) {
    EXPECT_EQ(static_cast<int>(rec.phase),
              static_cast<int>(TaskPhase::Completed));
  }
  EXPECT_GE(r.monitor_dropouts, 1u);
  EXPECT_EQ(r.monitor_dropouts, r.control_ticks);
}

TEST(Faults, WireSteeringSurvivesInjection) {
  // The acceptance property: WIRE's full MAPE loop (lookahead + steering +
  // online prediction) under crashes with notice, stragglers, provision
  // failures, transient faults, and dropouts never strands a workflow.
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("run seed " + std::to_string(seed));
    const dag::Workflow wf = workload::random_layered(
        workload::RandomDagOptions{}, seed + 40);
    CloudConfig config = hostile_cloud();
    config.faults.task_failure_prob = 0.05;  // keep quarantines rare
    core::WireController controller;
    RunOptions options;
    options.seed = seed;
    options.initial_instances = 1;
    options.max_sim_seconds = 3.0e6;
    const RunResult r = simulate(wf, controller, config, options);
    expect_exactly_once_completion(wf, r);
    expect_trace_counts(r);
    EXPECT_GT(r.makespan, 0.0);
  }
}

TEST(Faults, PredictorRobustHarvestIgnoresFailedAttempts) {
  // One stage, three tasks, no transfer data. Task 0 completed in 10 s;
  // task 1 suffered a failed attempt that burned 1000 s. The robust
  // (default) harvest must predict 10 s for the still-pending task 2; the
  // harvest_failed_attempts ablation ingests the 1000 s span and drags the
  // stage centre to the contaminated median.
  const dag::Workflow wf = workload::linear_workflow(1, 3, 10.0);
  MonitorSnapshot snap;
  snap.now = 1200.0;
  snap.incomplete_tasks = 2;
  snap.tasks.resize(wf.task_count());
  snap.tasks[0].phase = TaskPhase::Completed;
  snap.tasks[0].exec_time = 10.0;
  snap.tasks[0].attempts = 1;
  snap.tasks[1].phase = TaskPhase::Pending;
  snap.tasks[1].failed_attempts = 1;
  snap.tasks[1].last_failed_elapsed = 1000.0;
  snap.tasks[2].phase = TaskPhase::Ready;
  snap.tasks[2].ready_since = 0.0;

  predict::TaskPredictor robust(wf);
  robust.observe(snap);
  robust.observe(snap);  // replay must be idempotent
  EXPECT_DOUBLE_EQ(robust.predict_exec(2, snap).exec_seconds, 10.0);

  predict::PredictorConfig contaminated_config;
  contaminated_config.harvest_failed_attempts = true;
  predict::TaskPredictor contaminated(wf, contaminated_config);
  contaminated.observe(snap);
  contaminated.observe(snap);  // the failure must still be ingested once
  EXPECT_DOUBLE_EQ(contaminated.predict_exec(2, snap).exec_seconds, 505.0);

  // Same contamination through the exact-delta fast path.
  MonitorSnapshot delta_snap = snap;
  delta_snap.delta.exact = true;
  delta_snap.delta.completed = {0};
  delta_snap.delta.phase_changed = {0, 1};
  delta_snap.delta.failed = {1};
  predict::TaskPredictor via_delta(wf, contaminated_config);
  via_delta.observe(delta_snap);
  EXPECT_DOUBLE_EQ(via_delta.predict_exec(2, snap).exec_seconds, 505.0);
}

}  // namespace
}  // namespace wire::sim
