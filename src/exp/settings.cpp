#include "exp/settings.h"

#include "policies/baselines.h"
#include "util/check.h"

namespace wire::exp {

const char* policy_label(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::FullSite: return "full-site";
    case PolicyKind::PureReactive: return "pure-reactive";
    case PolicyKind::ReactiveConserving: return "reactive-conserving";
    case PolicyKind::Wire: return "wire";
  }
  return "?";
}

std::vector<PolicyKind> all_policies() {
  return {PolicyKind::FullSite, PolicyKind::PureReactive,
          PolicyKind::ReactiveConserving, PolicyKind::Wire};
}

std::vector<double> paper_charging_units() {
  return {60.0, 900.0, 1800.0, 3600.0};
}

sim::CloudConfig paper_cloud(double charging_unit_seconds) {
  sim::CloudConfig config;
  config.lag_seconds = 180.0;  // ~3 minute VM instantiation (§IV-B)
  config.charging_unit_seconds = charging_unit_seconds;
  config.slots_per_instance = 4;  // XOXLarge hosts up to 4 concurrent tasks
  config.max_instances = 12;      // site maximum
  // Substrate realism for the §IV-C runs: the site's storage/network fabric
  // is shared (transfers contend), and each dispatch pays the Condor
  // negotiation/startup cost.
  config.variability.aggregate_bandwidth_mb_per_s = 300.0;
  config.dispatch_overhead_seconds = 10.0;
  return config;
}

std::unique_ptr<sim::ScalingPolicy> make_policy(
    PolicyKind kind, const core::WireOptions& wire_options) {
  switch (kind) {
    case PolicyKind::FullSite:
      return std::make_unique<policies::StaticPolicy>(12, "full-site");
    case PolicyKind::PureReactive:
      return std::make_unique<policies::PureReactivePolicy>();
    case PolicyKind::ReactiveConserving:
      return std::make_unique<policies::ReactiveConservingPolicy>();
    case PolicyKind::Wire:
      return std::make_unique<core::WireController>(wire_options);
  }
  WIRE_REQUIRE(false, "unknown policy kind");
  return nullptr;
}

std::function<std::unique_ptr<sim::ScalingPolicy>(std::uint32_t)>
sharded_policy_factory(PolicyKind kind,
                       const core::WireOptions& wire_options) {
  if (kind != PolicyKind::Wire) {
    return [kind, wire_options](std::uint32_t) {
      return make_policy(kind, wire_options);
    };
  }
  // One Plan scratch arena for every controller this factory mints.
  core::WireOptions shared = wire_options;
  if (!shared.plan_scratch) {
    shared.plan_scratch = std::make_shared<core::PlanScratch>();
  }
  return [kind, shared](std::uint32_t) { return make_policy(kind, shared); };
}

std::function<std::unique_ptr<sim::ScalingPolicy>(std::uint32_t)>
sharded_budget_policy_factory(PolicyKind kind,
                              const policies::BudgetOptions& budget,
                              const core::WireOptions& wire_options) {
  auto inner = sharded_policy_factory(kind, wire_options);
  return [inner, budget](std::uint32_t shard) {
    return std::make_unique<policies::BudgetPolicy>(inner(shard), budget);
  };
}

std::uint32_t initial_instances(PolicyKind kind,
                                const sim::CloudConfig& config) {
  if (kind == PolicyKind::FullSite) {
    return config.max_instances > 0 ? config.max_instances : 12;
  }
  return 1;
}

}  // namespace wire::exp
