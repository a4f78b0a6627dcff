// Tests for the simulated IaaS provider: instance lifecycle, charge clocks,
// per-started-unit billing, and drain-at-boundary semantics.
#include <gtest/gtest.h>

#include <cmath>

#include "policies/baselines.h"
#include "sim/cloud.h"
#include "sim/driver.h"
#include "sim/engine.h"
#include "sim/event_queue.h"
#include "util/check.h"
#include "workload/generators.h"
#include "workload/profiles.h"

namespace wire::sim {
namespace {

CloudConfig test_config() {
  CloudConfig config;
  config.lag_seconds = 180.0;
  config.charging_unit_seconds = 900.0;
  config.slots_per_instance = 4;
  config.max_instances = 12;
  return config;
}

TEST(CloudPool, RequestBecomesReadyAfterLag) {
  CloudPool pool(test_config());
  const InstanceId id = pool.request(100.0, 1.0);
  EXPECT_EQ(pool.instance(id).state, InstanceState::Provisioning);
  EXPECT_DOUBLE_EQ(pool.instance(id).ready_at, 280.0);
  EXPECT_FALSE(pool.is_usable(id, 200.0));
  pool.mark_ready(id, 280.0);
  EXPECT_EQ(pool.instance(id).state, InstanceState::Ready);
  EXPECT_TRUE(pool.is_usable(id, 280.0));
}

TEST(CloudPool, RequestReadyIsImmediatelyUsable) {
  CloudPool pool(test_config());
  const InstanceId id = pool.request_ready(0.0, 1.0);
  EXPECT_TRUE(pool.is_usable(id, 0.0));
  EXPECT_DOUBLE_EQ(pool.instance(id).ready_at, 0.0);
}

TEST(CloudPool, TimeToNextChargeWrapsEachUnit) {
  CloudPool pool(test_config());
  const InstanceId id = pool.request_ready(0.0, 1.0);
  EXPECT_DOUBLE_EQ(pool.time_to_next_charge(id, 0.0), 900.0);
  EXPECT_DOUBLE_EQ(pool.time_to_next_charge(id, 100.0), 800.0);
  EXPECT_DOUBLE_EQ(pool.time_to_next_charge(id, 899.0), 1.0);
  EXPECT_DOUBLE_EQ(pool.time_to_next_charge(id, 900.0), 900.0);
  EXPECT_DOUBLE_EQ(pool.time_to_next_charge(id, 1000.0), 800.0);
}

TEST(CloudPool, TimeToNextChargeAtAndJustPastABoundary) {
  CloudPool pool(test_config());
  const InstanceId id = pool.request_ready(0.0, 1.0);
  // On the boundary a fresh unit has just started: a full unit remains.
  EXPECT_EQ(pool.time_to_next_charge(id, 1800.0), 900.0);
  // 1e-7 s past it (below the 1e-6 billing epsilon) that sliver is already
  // taken off the unit; there is no snap back to a full unit.
  const double past = pool.time_to_next_charge(id, 1800.0 + 1e-7);
  EXPECT_LT(past, 900.0);
  EXPECT_NEAR(past, 900.0 - 1e-7, 1e-9);
  EXPECT_EQ(past, 900.0 - std::fmod(1800.0 + 1e-7, 900.0));
}

TEST(CloudPool, BillingRoundsUpToStartedUnits) {
  CloudPool pool(test_config());
  const InstanceId id = pool.request_ready(0.0, 1.0);
  // A ready instance always pays at least one unit.
  EXPECT_DOUBLE_EQ(pool.charged_units(id, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(pool.charged_units(id, 900.0), 1.0);
  EXPECT_DOUBLE_EQ(pool.charged_units(id, 901.0), 2.0);
  EXPECT_DOUBLE_EQ(pool.charged_units(id, 2700.0), 3.0);
}

TEST(CloudPool, BillingStartsAtBootNotAtRequest) {
  CloudPool pool(test_config());
  const InstanceId id = pool.request(0.0, 1.0);
  pool.mark_ready(id, 180.0);
  // 180..1080 is the first unit.
  EXPECT_DOUBLE_EQ(pool.charged_units(id, 1080.0), 1.0);
  EXPECT_DOUBLE_EQ(pool.charged_units(id, 1081.0), 2.0);
}

TEST(CloudPool, TerminationFreezesBilling) {
  CloudPool pool(test_config());
  const InstanceId id = pool.request_ready(0.0, 1.0);
  pool.terminate(id, 950.0);  // mid second unit: both units paid
  EXPECT_DOUBLE_EQ(pool.charged_units(id, 5000.0), 2.0);
  EXPECT_EQ(pool.instance(id).state, InstanceState::Terminated);
}

TEST(CloudPool, CancelledProvisioningIsNeverBilled) {
  CloudPool pool(test_config());
  const InstanceId id = pool.request(0.0, 1.0);
  pool.terminate(id, 50.0);  // before boot completes
  EXPECT_DOUBLE_EQ(pool.charged_units(id, 5000.0), 0.0);
  // A late InstanceReady event must be a no-op.
  pool.mark_ready(id, 180.0);
  EXPECT_EQ(pool.instance(id).state, InstanceState::Terminated);
}

TEST(CloudPool, DrainLandsExactlyOnChargeBoundary) {
  CloudPool pool(test_config());
  const InstanceId id = pool.request_ready(0.0, 1.0);
  const SimTime when = pool.schedule_drain(id, 850.0);
  EXPECT_DOUBLE_EQ(when, 900.0);
  EXPECT_FALSE(pool.is_usable(id, 860.0));  // draining: no new tasks
  pool.terminate(id, when);
  // Exactly one unit paid — the drain wasted nothing.
  EXPECT_DOUBLE_EQ(pool.charged_units(id, 5000.0), 1.0);
}

TEST(CloudPool, CancelDrainRestoresDispatchability) {
  CloudPool pool(test_config());
  const InstanceId id = pool.request_ready(0.0, 1.0);
  pool.schedule_drain(id, 100.0);
  EXPECT_FALSE(pool.is_usable(id, 150.0));
  pool.cancel_drain(id);
  EXPECT_TRUE(pool.is_usable(id, 150.0));
}

TEST(CloudPool, LiveAndPeakCounts) {
  CloudPool pool(test_config());
  const InstanceId a = pool.request_ready(0.0, 1.0);
  const InstanceId b = pool.request(0.0, 1.0);  // provisioning counts as live
  EXPECT_EQ(pool.live_count(), 2u);
  EXPECT_EQ(pool.peak_live(), 2u);
  pool.terminate(a, 10.0);
  EXPECT_EQ(pool.live_count(), 1u);
  EXPECT_EQ(pool.peak_live(), 2u);
  EXPECT_EQ(pool.live().size(), 1u);
  EXPECT_EQ(pool.live()[0], b);
}

TEST(CloudPool, TotalsAggregateAcrossInstances) {
  CloudPool pool(test_config());
  pool.request_ready(0.0, 1.0);
  const InstanceId b = pool.request_ready(0.0, 1.0);
  pool.terminate(b, 100.0);
  EXPECT_DOUBLE_EQ(pool.total_charged_units(1000.0), 3.0);  // 2 + 1
  EXPECT_DOUBLE_EQ(pool.total_ready_seconds(1000.0), 1100.0);
}

TEST(CloudPool, DoubleTerminateThrows) {
  CloudPool pool(test_config());
  const InstanceId id = pool.request_ready(0.0, 1.0);
  pool.terminate(id, 10.0);
  EXPECT_THROW(pool.terminate(id, 20.0), util::ContractViolation);
}

TEST(CloudPool, BillingInvariantHoldsAtEveryEventUnderChaos) {
  // The billing probe behind the budget policy's accounting mirror: at every
  // engine event under restart/revocation chaos, the per-instance charging
  // units must sum to the pool's total, the total must never decrease as the
  // clock advances, and the final total must be exactly the RunResult's
  // cost_units. Any drift here would silently corrupt budget enforcement
  // (policies::BudgetPolicy mirrors this arithmetic from the monitoring
  // surface).
  CloudConfig config = test_config();
  config.lag_seconds = 60.0;
  config.charging_unit_seconds = 60.0;
  config.faults.crash_rate_per_hour = 0.8;
  config.faults.crash_notice_seconds = 120.0;  // spot-style revocations
  config.faults.provision_failure_prob = 0.1;
  config.faults.straggler_prob = 0.15;
  config.faults.task_failure_prob = 0.08;  // transient restarts
  const dag::Workflow wf = workload::make_workflow(
      workload::tpch6_profile(workload::Scale::Small), 7);

  for (std::uint64_t seed : {5ull, 11ull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    policies::ReactiveConservingPolicy policy;
    RunOptions options;
    options.seed = seed;
    options.initial_instances = 1;
    JobEngine engine(wf, policy, config, options);
    engine.start();
    double previous_total = 0.0;
    SimTime previous_time = 0.0;
    while (!engine.done()) {
      engine.step();
      const SimTime t =
          engine.done() ? engine.end_time() : engine.next_event_time();
      double per_instance_sum = 0.0;
      for (const Instance& inst : engine.cloud().instances()) {
        per_instance_sum += engine.cloud().charged_units(inst.id, t);
      }
      const double total = engine.cloud().total_charged_units(t);
      ASSERT_DOUBLE_EQ(per_instance_sum, total) << "at t=" << t;
      if (t >= previous_time) {
        ASSERT_GE(total, previous_total)
            << "billing ran backwards between t=" << previous_time
            << " and t=" << t;
        previous_total = total;
        previous_time = t;
      }
    }
    const SimTime end = engine.end_time();
    const double final_total = engine.cloud().total_charged_units(end);
    const RunResult result = engine.result();
    EXPECT_DOUBLE_EQ(result.cost_units, final_total);
    EXPECT_GT(result.instance_crashes + result.task_faults, 0u)
        << "chaos never engaged — the probe is vacuous";
  }
}

TEST(EventQueue, OrdersByTimeThenSequence) {
  EventQueue q;
  q.schedule(10.0, EventKind::ControlTick, 1);
  q.schedule(5.0, EventKind::InstanceReady, 2);
  q.schedule(10.0, EventKind::ExecDone, 3);
  ASSERT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop().payload, 2u);
  // Same time: insertion order wins.
  EXPECT_EQ(q.pop().payload, 1u);
  EXPECT_EQ(q.pop().payload, 3u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RejectsSchedulingInThePast) {
  EventQueue q;
  q.schedule(10.0, EventKind::ControlTick, 0);
  q.pop();
  EXPECT_THROW(q.schedule(5.0, EventKind::ControlTick, 0),
               util::ContractViolation);
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop(), util::ContractViolation);
  EXPECT_THROW(q.next_time(), util::ContractViolation);
}

}  // namespace
}  // namespace wire::sim
