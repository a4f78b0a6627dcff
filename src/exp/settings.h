// The experiment settings matrix of §IV-C: four resource-management policies
// × four charging units (1, 15, 30, 60 minutes), on the simulated ExoGENI
// site of §IV-B (12 XOXLarge instances max, 4 slots each, ~3 minute lag).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/controller.h"
#include "policies/budget.h"
#include "sim/config.h"
#include "sim/scaling_policy.h"

namespace wire::exp {

/// The four §IV-C resource-management settings.
enum class PolicyKind {
  FullSite,            // static, 12 instances ("full-site runs")
  PureReactive,        // pool == active tasks
  ReactiveConserving,  // reactive load + steering release rules
  Wire,                // the WIRE controller
};

const char* policy_label(PolicyKind kind);

/// All four, in paper order.
std::vector<PolicyKind> all_policies();

/// The §IV-B charging units in seconds: 1, 15, 30, 60 minutes.
std::vector<double> paper_charging_units();

/// The §IV-B cloud site with the given charging unit.
sim::CloudConfig paper_cloud(double charging_unit_seconds);

/// Instantiates a policy. `wire_options` applies to PolicyKind::Wire only.
std::unique_ptr<sim::ScalingPolicy> make_policy(
    PolicyKind kind, const core::WireOptions& wire_options = {});

/// A reusable factory for `kind`, in the shape the multi-tenant ensemble
/// driver consumes: each call mints a fresh policy (one controller per
/// concurrent job); the `shard` argument is ignored. For PolicyKind::Wire,
/// every controller the factory mints shares one Plan scratch arena
/// (WireOptions::plan_scratch if set, else one made here) — sound because
/// the driver steps one tenant at a time, so no two policies plan()
/// concurrently (see core/plan_scratch.h). Scratch identity never affects
/// results (the arena holds no cross-tick state). A factory's policies must
/// therefore not be run on different threads at once.
///
/// With `wire_options.bandit` enabled, every minted controller carries its
/// OWN BanditSelector (per-tenant predictor selection), all seeded from the
/// same `bandit.seed`. The seed is deliberately NOT mixed with a mint-order
/// counter, so a job's dedicated-baseline replay (minted at the job's
/// retirement, in between other tenants' admissions) starts from the same
/// selector state as the tenant itself;
/// per-tenant selector streams still diverge deterministically because each
/// tenant feeds its selector its own regret sequence. Selector-off
/// (`bandit.arms == 0`) stays byte-identical to the pre-bandit factory.
std::function<std::unique_ptr<sim::ScalingPolicy>(std::uint32_t)>
sharded_policy_factory(PolicyKind kind,
                       const core::WireOptions& wire_options = {});

/// As sharded_policy_factory, with every minted policy wrapped in a
/// policies::BudgetPolicy carrying `budget`. With budget.budget_units == 0
/// the wrapper is a pure passthrough and the factory's runs are
/// byte-identical to sharded_policy_factory's — the budget-off identity
/// contract.
std::function<std::unique_ptr<sim::ScalingPolicy>(std::uint32_t)>
sharded_budget_policy_factory(PolicyKind kind,
                              const policies::BudgetOptions& budget,
                              const core::WireOptions& wire_options = {});

/// Bootstrap pool size for a policy on a site: the full site for FullSite,
/// one instance for the elastic policies.
std::uint32_t initial_instances(PolicyKind kind,
                                const sim::CloudConfig& config);

}  // namespace wire::exp
