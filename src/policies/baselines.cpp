#include "policies/baselines.h"

#include <algorithm>
#include <vector>

#include "core/steering.h"
#include "util/check.h"

namespace wire::policies {

namespace {

/// Active load: tasks occupying slots plus tasks waiting in the ready queue.
/// Every Running task occupies a slot on exactly one live instance, so the
/// per-instance rosters sum to the Running count — O(live instances) instead
/// of a full O(total tasks) phase scan.
std::uint32_t active_tasks(const sim::MonitorSnapshot& snapshot) {
  std::uint32_t running = 0;
  for (const sim::InstanceObservation& inst : snapshot.instances) {
    running += static_cast<std::uint32_t>(inst.running_tasks.size());
  }
  return running + static_cast<std::uint32_t>(snapshot.ready_queue.size());
}

/// Clamps a planned pool size to the externally imposed ceiling, if any.
/// pool_cap == 0 is a genuine zero share (all growth blocked), distinct from
/// kNoInstanceCap (no ceiling). A zero share blocks growth but must not
/// strand the job: while work remains, one already-live instance is kept
/// rather than released — a blocked tenant can never regrow, so giving up
/// the last instance would deadlock the run. (Arbiters floor shares at the
/// live count, so this only arises under manually imposed caps.)
std::uint32_t clamp_to_cap(std::uint32_t planned,
                           const sim::MonitorSnapshot& snapshot) {
  if (snapshot.pool_cap == sim::kNoInstanceCap) return planned;
  std::uint32_t target = std::min(planned, snapshot.pool_cap);
  if (target == 0 && snapshot.incomplete_tasks > 0 &&
      !snapshot.instances.empty()) {
    target = 1;
  }
  return target;
}

/// Reactive target pool size for a given load.
std::uint32_t reactive_target(const sim::MonitorSnapshot& snapshot,
                              const sim::CloudConfig& config) {
  const std::uint32_t active = active_tasks(snapshot);
  if (active == 0) {
    return snapshot.incomplete_tasks > 0 ? 1u : 0u;
  }
  return (active + config.slots_per_instance - 1) / config.slots_per_instance;
}

}  // namespace

StaticPolicy::StaticPolicy(std::uint32_t size, std::string label)
    : size_(size), label_(std::move(label)) {
  WIRE_REQUIRE(size_ >= 1, "static pool needs at least one instance");
  if (label_.empty()) {
    label_ = "static-" + std::to_string(size_);
  }
}

void StaticPolicy::on_run_start(const dag::Workflow& /*workflow*/,
                                const sim::CloudConfig& /*config*/) {}

sim::PoolCommand StaticPolicy::plan(const sim::MonitorSnapshot& snapshot) {
  sim::PoolCommand cmd;
  cmd.desired_pool = size_;
  const std::uint32_t target = clamp_to_cap(size_, snapshot);
  const std::uint32_t live =
      static_cast<std::uint32_t>(snapshot.instances.size());
  if (live < target) cmd.grow = target - live;
  return cmd;
}

void PureReactivePolicy::on_run_start(const dag::Workflow& /*workflow*/,
                                      const sim::CloudConfig& config) {
  config_ = config;
}

sim::PoolCommand PureReactivePolicy::plan(
    const sim::MonitorSnapshot& snapshot) {
  sim::PoolCommand cmd;
  cmd.desired_pool = reactive_target(snapshot, config_);
  const std::uint32_t target = clamp_to_cap(cmd.desired_pool, snapshot);
  const std::uint32_t m = core::stable_pool(snapshot);
  if (target > m) {
    cmd.grow = target - m;
    return cmd;
  }
  if (target == m) return cmd;

  // Shrink immediately, emptiest instances first (fewest running tasks), so
  // the restart churn is as small as a purely reactive policy can manage.
  std::vector<const sim::InstanceObservation*> ready;
  for (const sim::InstanceObservation& inst : snapshot.instances) {
    // Revoking instances are already written off (excluded from m); the
    // provider reclaims them, so releasing one would double-count the loss.
    if (!inst.provisioning && !inst.draining && !inst.revoking) {
      ready.push_back(&inst);
    }
  }
  std::sort(ready.begin(), ready.end(),
            [](const sim::InstanceObservation* a,
               const sim::InstanceObservation* b) {
              if (a->running_tasks.size() != b->running_tasks.size()) {
                return a->running_tasks.size() < b->running_tasks.size();
              }
              return a->id < b->id;
            });
  std::uint32_t remaining = m;
  for (const sim::InstanceObservation* inst : ready) {
    if (remaining == target) break;
    cmd.releases.push_back(
        sim::Release{inst->id, /*at_charge_boundary=*/false});
    --remaining;
  }
  return cmd;
}

void ReactiveConservingPolicy::on_run_start(const dag::Workflow& /*workflow*/,
                                            const sim::CloudConfig& config) {
  config_ = config;
}

sim::PoolCommand ReactiveConservingPolicy::plan(
    const sim::MonitorSnapshot& snapshot) {
  sim::PoolCommand cmd;
  cmd.desired_pool = reactive_target(snapshot, config_);
  const std::uint32_t target = clamp_to_cap(cmd.desired_pool, snapshot);
  const std::uint32_t m = core::stable_pool(snapshot);
  if (target > m) {
    cmd.grow = target - m;
    return cmd;
  }
  if (target >= m) return cmd;

  // Steering-policy release discipline (Algorithm 2's rule) with the
  // observed sunk cost right now as the restart cost.
  std::vector<core::VictimCandidate> candidates;
  core::release_cheapest(
      snapshot, config_, m, target,
      [&](const sim::InstanceObservation& inst) {
        return core::sunk_cost_at_risk(inst, snapshot, config_,
                                       /*horizon=*/0.0, /*floor=*/0.0);
      },
      candidates, cmd);
  return cmd;
}

}  // namespace wire::policies
