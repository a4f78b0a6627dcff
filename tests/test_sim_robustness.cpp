// Driver robustness: the simulator must tolerate hostile or buggy scaling
// policies without corrupting state — nonsense instance ids, releases of
// provisioning instances, duplicate releases, oversized grow requests,
// oscillating commands. Every task must still complete and billing must stay
// consistent. A CloudConfig out of range is refused up front, by the
// single-job engine and the ensemble driver alike.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "ensemble/arrival.h"
#include "ensemble/driver.h"
#include "exp/settings.h"
#include "policies/baselines.h"
#include "sim/driver.h"
#include "sim/engine.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/generators.h"
#include "workload/profiles.h"

namespace wire::sim {
namespace {

CloudConfig small_cloud() {
  CloudConfig config;
  config.lag_seconds = 30.0;
  config.charging_unit_seconds = 120.0;
  config.slots_per_instance = 2;
  config.max_instances = 5;
  return config;
}

/// Issues deliberately malformed commands.
class HostilePolicy final : public ScalingPolicy {
 public:
  explicit HostilePolicy(std::uint64_t seed) : rng_(seed) {}
  std::string name() const override { return "hostile"; }
  void on_run_start(const dag::Workflow&, const CloudConfig&) override {}

  PoolCommand plan(const MonitorSnapshot& snapshot) override {
    PoolCommand cmd;
    switch (rng_.uniform_int(0, 5)) {
      case 0:
        cmd.grow = 1000;  // far beyond the site cap
        break;
      case 1:
        // Release an instance id that does not exist.
        cmd.releases.push_back(Release{987654u, true});
        cmd.releases.push_back(Release{kInvalidInstance, false});
        break;
      case 2:
        // Release everything, twice, mixing modes.
        for (const InstanceObservation& inst : snapshot.instances) {
          cmd.releases.push_back(Release{inst.id, true});
          cmd.releases.push_back(Release{inst.id, false});
        }
        cmd.grow = 2;
        break;
      case 3:
        // Release provisioning instances specifically.
        for (const InstanceObservation& inst : snapshot.instances) {
          if (inst.provisioning) {
            cmd.releases.push_back(Release{inst.id, true});
          }
        }
        break;
      case 4:
        cmd.grow = 3;
        break;
      default:
        break;  // do nothing
    }
    return cmd;
  }

 private:
  util::Rng rng_;
};

class HostileSweep : public ::testing::TestWithParam<int> {};

TEST_P(HostileSweep, RunsSurviveMalformedCommands) {
  SCOPED_TRACE("dag/policy seed " + std::to_string(GetParam()));
  const dag::Workflow wf = workload::random_layered(
      workload::RandomDagOptions{}, static_cast<std::uint64_t>(GetParam()));
  HostilePolicy policy(static_cast<std::uint64_t>(GetParam()) + 99);
  RunOptions options;
  options.seed = 7;
  options.initial_instances = 1;
  options.max_sim_seconds = 3.0e6;

  const RunResult r = simulate(wf, policy, small_cloud(), options);
  for (const TaskRuntime& rec : r.task_records) {
    EXPECT_EQ(rec.phase, TaskPhase::Completed);
  }
  EXPECT_LE(r.peak_instances, 5u);
  EXPECT_GE(r.cost_units, 1.0);
  EXPECT_GT(r.utilization, 0.0);
  EXPECT_LE(r.utilization, 1.0 + 1e-9);
}

TEST_P(HostileSweep, SteppableEngineSurvivesMalformedCommands) {
  // The same chaos through the steppable JobEngine path the ensemble
  // multiplexer drives, stepping one event at a time instead of letting
  // simulate() own the loop. On failure the trace names the seed so the run
  // reproduces (see DESIGN.md, "Randomized tests print their seeds").
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  SCOPED_TRACE("dag/policy seed " + std::to_string(seed));
  const dag::Workflow wf = workload::random_layered(
      workload::RandomDagOptions{}, seed);
  HostilePolicy policy(seed + 99);
  const CloudConfig config = small_cloud();
  RunOptions options;
  options.seed = 7;
  options.initial_instances = 1;
  options.max_sim_seconds = 3.0e6;

  JobEngine engine(wf, policy, config, options);
  engine.start();
  while (!engine.done()) {
    engine.step();
    ASSERT_LE(engine.live_instances(), config.max_instances);
  }
  const RunResult r = engine.result();

  // Completion invariant: every task completes exactly once (no fault
  // injection here, so nothing may be quarantined).
  for (const TaskRuntime& rec : r.task_records) {
    EXPECT_EQ(rec.phase, TaskPhase::Completed);
  }
  EXPECT_TRUE(r.quarantined_tasks.empty());

  // Billing invariants against the ground-truth pool: the result's cost is
  // exactly the per-instance charge sum; instances the hostile policy
  // released before their boot completed are never charged; terminated
  // instances stop accruing at their termination time.
  const CloudPool& cloud = engine.cloud();
  double charged = 0.0;
  for (const Instance& inst : cloud.instances()) {
    const double units = cloud.charged_units(inst.id, r.makespan);
    charged += units;
    if (inst.state == InstanceState::Terminated &&
        inst.terminated_at <= inst.ready_at) {
      EXPECT_EQ(units, 0.0) << "charged a never-ready instance " << inst.id;
    }
    if (inst.state == InstanceState::Terminated) {
      EXPECT_EQ(units, cloud.charged_units(inst.id, inst.terminated_at))
          << "instance " << inst.id << " accrued charge after termination";
    }
  }
  EXPECT_NEAR(r.cost_units, charged, 1e-9);
  EXPECT_LE(r.peak_instances, config.max_instances);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HostileSweep, ::testing::Range(0, 10));

TEST(Robustness, ConstantChurnStillFinishes) {
  // A policy that kills every instance except one at every tick while also
  // requesting replacements — constant resubmission churn. (Killing the
  // *entire* pool every tick starves the run forever by construction: the
  // control interval equals the provisioning lag, so replacements boot
  // exactly when the next purge fires — that case is the Starver test
  // below.) The survivor makes progress; every task must still complete.
  class KillAllButOne final : public ScalingPolicy {
   public:
    std::string name() const override { return "kill-all-but-one"; }
    void on_run_start(const dag::Workflow&, const CloudConfig&) override {}
    PoolCommand plan(const MonitorSnapshot& snapshot) override {
      PoolCommand cmd;
      bool spared = false;
      for (const InstanceObservation& inst : snapshot.instances) {
        if (!inst.provisioning && !spared) {
          spared = true;
          continue;
        }
        cmd.releases.push_back(Release{inst.id, false});
      }
      cmd.grow = 2;
      return cmd;
    }
  };
  const dag::Workflow wf = workload::linear_workflow(2, 6, 10.0);
  KillAllButOne policy;
  const CloudConfig config = small_cloud();
  RunOptions options;
  options.initial_instances = 2;
  const RunResult r = simulate(wf, policy, config, options);
  for (const TaskRuntime& rec : r.task_records) {
    EXPECT_EQ(rec.phase, TaskPhase::Completed);
  }
}

TEST(Robustness, StuckPolicyHitsTheTimeGuard) {
  // Zero instances forever: the driver must throw the max_sim_seconds guard
  // rather than loop silently.
  class Starver final : public ScalingPolicy {
   public:
    std::string name() const override { return "starver"; }
    void on_run_start(const dag::Workflow&, const CloudConfig&) override {}
    PoolCommand plan(const MonitorSnapshot& snapshot) override {
      PoolCommand cmd;
      for (const InstanceObservation& inst : snapshot.instances) {
        cmd.releases.push_back(Release{inst.id, false});
      }
      return cmd;
    }
  };
  const dag::Workflow wf = workload::linear_workflow(1, 3, 50.0);
  Starver policy;
  RunOptions options;
  options.initial_instances = 1;
  options.max_sim_seconds = 10000.0;
  EXPECT_THROW(simulate(wf, policy, small_cloud(), options),
               std::runtime_error);
}

/// One out-of-range CloudConfig knob.
struct BadCloud {
  std::string name;
  std::function<void(CloudConfig&)> mutate;
};

void PrintTo(const BadCloud& bad, std::ostream* os) { *os << bad.name; }

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<BadCloud> bad_clouds() {
  std::vector<BadCloud> bad = {
      // An infinite lag makes the lookahead horizon infinite and its boot
      // loop read past the end of its list.
      {"lag_inf", [](CloudConfig& c) { c.lag_seconds = kInf; }},
      {"lag_nan", [](CloudConfig& c) { c.lag_seconds = kNaN; }},
      {"lag_zero", [](CloudConfig& c) { c.lag_seconds = 0.0; }},
      {"unit_inf", [](CloudConfig& c) { c.charging_unit_seconds = kInf; }},
      {"unit_nan", [](CloudConfig& c) { c.charging_unit_seconds = kNaN; }},
      {"unit_negative",
       [](CloudConfig& c) { c.charging_unit_seconds = -900.0; }},
      {"no_slots", [](CloudConfig& c) { c.slots_per_instance = 0; }},
      // A NaN latency never finishes; a negative one speeds transfers up.
      {"latency_nan",
       [](CloudConfig& c) { c.variability.transfer_latency_seconds = kNaN; }},
      {"latency_negative",
       [](CloudConfig& c) {
         c.variability.transfer_latency_seconds = -1000.0;
       }},
      {"latency_inf",
       [](CloudConfig& c) { c.variability.transfer_latency_seconds = kInf; }},
      {"dispatch_overhead_nan",
       [](CloudConfig& c) { c.dispatch_overhead_seconds = kNaN; }},
      {"dispatch_overhead_negative",
       [](CloudConfig& c) { c.dispatch_overhead_seconds = -1.0; }},
      {"aggregate_bandwidth_nan",
       [](CloudConfig& c) {
         c.variability.aggregate_bandwidth_mb_per_s = kNaN;
       }},
      {"aggregate_bandwidth_negative",
       [](CloudConfig& c) {
         c.variability.aggregate_bandwidth_mb_per_s = -1.0;
       }},
      {"aggregate_bandwidth_inf",
       [](CloudConfig& c) {
         c.variability.aggregate_bandwidth_mb_per_s = kInf;
       }},
      {"link_bandwidth_zero",
       [](CloudConfig& c) { c.variability.bandwidth_mb_per_s = 0.0; }},
      {"link_bandwidth_nan",
       [](CloudConfig& c) { c.variability.bandwidth_mb_per_s = kNaN; }},
      {"link_bandwidth_inf",
       [](CloudConfig& c) { c.variability.bandwidth_mb_per_s = kInf; }},
      {"restart_cost_nan",
       [](CloudConfig& c) { c.restart_cost_fraction = kNaN; }},
      {"restart_cost_negative",
       [](CloudConfig& c) { c.restart_cost_fraction = -0.2; }},
      {"restart_cost_inf",
       [](CloudConfig& c) { c.restart_cost_fraction = kInf; }},
      {"checkpoint_fraction_above_one",
       [](CloudConfig& c) { c.checkpoint_fraction = 1.5; }},
      {"checkpoint_fraction_negative",
       [](CloudConfig& c) { c.checkpoint_fraction = -0.1; }},
      {"checkpoint_fraction_nan",
       [](CloudConfig& c) { c.checkpoint_fraction = kNaN; }},
      {"retry_attempts_zero", [](CloudConfig& c) { c.retry.max_attempts = 0; }},
      {"retry_backoff_nan",
       [](CloudConfig& c) { c.retry.backoff_base_seconds = kNaN; }},
      {"retry_backoff_negative",
       [](CloudConfig& c) { c.retry.backoff_base_seconds = -30.0; }},
      {"retry_backoff_inf",
       [](CloudConfig& c) { c.retry.backoff_base_seconds = kInf; }},
      {"retry_factor_nan",
       [](CloudConfig& c) { c.retry.backoff_factor = kNaN; }},
      {"retry_factor_negative",
       [](CloudConfig& c) { c.retry.backoff_factor = -2.0; }},
      {"fault_probability_above_one",
       [](CloudConfig& c) { c.faults.task_failure_prob = 1.5; }},
      {"fault_rate_negative",
       [](CloudConfig& c) { c.faults.crash_rate_per_hour = -1.0; }},
      {"memory_percentile_zero",
       [](CloudConfig& c) { c.memory.percentile = 0.0; }},
  };
  // Every lognormal sigma, NaN, negative and infinite.
  const std::vector<std::pair<const char*, double VariabilityConfig::*>>
      sigmas = {{"instance_speed", &VariabilityConfig::instance_speed_sigma},
                {"interference", &VariabilityConfig::interference_sigma},
                {"run_speed", &VariabilityConfig::run_speed_sigma},
                {"transfer_noise", &VariabilityConfig::transfer_noise_sigma}};
  const std::pair<const char*, double> values[] = {
      {"_nan", kNaN}, {"_negative", -0.1}, {"_inf", kInf}};
  for (const auto& [suffix, value] : values) {
    for (const auto& [name, field] : sigmas) {
      bad.push_back({std::string(name) + "_sigma" + suffix,
                     [field = field, value = value](CloudConfig& c) {
                       c.variability.*field = value;
                     }});
    }
    bad.push_back({std::string("memory_noise_sigma") + suffix,
                   [value = value](CloudConfig& c) {
                     c.memory.noise_sigma = value;
                   }});
  }
  return bad;
}

class CloudConfigValidation : public ::testing::TestWithParam<BadCloud> {};

TEST_P(CloudConfigValidation, BothConstructorsRejectTheValue) {
  CloudConfig cloud = exp::paper_cloud(900.0);
  GetParam().mutate(cloud);
  EXPECT_THROW(cloud.validate(), util::ContractViolation);

  const dag::Workflow wf = workload::linear_workflow(1, 4, 100.0);
  policies::PureReactivePolicy policy;
  EXPECT_THROW(JobEngine(wf, policy, cloud, RunOptions{}),
               util::ContractViolation);

  std::vector<ensemble::JobArrival> trace(1);
  EXPECT_THROW(
      ensemble::EnsembleDriver(
          {workload::tpch6_profile(workload::Scale::Small)},
          ensemble::ArrivalProcess::fixed_trace(std::move(trace)),
          exp::sharded_policy_factory(exp::PolicyKind::PureReactive), cloud),
      util::ContractViolation);
}

INSTANTIATE_TEST_SUITE_P(
    OutOfRange, CloudConfigValidation, ::testing::ValuesIn(bad_clouds()),
    [](const ::testing::TestParamInfo<BadCloud>& info) {
      return info.param.name;
    });

TEST(CloudConfigValidation, PaperCloudsAndBoundaryValuesAreAccepted) {
  std::vector<CloudConfig> good;
  for (const double u : {60.0, 900.0, 1800.0, 3600.0}) {
    good.push_back(exp::paper_cloud(u));
  }
  good.push_back(CloudConfig{});
  CloudConfig edges;
  edges.variability.instance_speed_sigma = 0.0;
  edges.variability.interference_sigma = 0.0;
  edges.variability.transfer_noise_sigma = 0.0;
  edges.variability.transfer_latency_seconds = 0.0;
  edges.restart_cost_fraction = 0.0;
  edges.checkpoint_fraction = 1.0;
  edges.retry.backoff_base_seconds = 0.0;
  edges.retry.backoff_factor = 0.0;
  good.push_back(edges);
  const dag::Workflow wf = workload::linear_workflow(1, 4, 100.0);
  policies::PureReactivePolicy policy;
  for (const CloudConfig& cloud : good) {
    EXPECT_NO_THROW(cloud.validate());
    EXPECT_NO_THROW(JobEngine(wf, policy, cloud, RunOptions{}));
  }
}

}  // namespace
}  // namespace wire::sim
