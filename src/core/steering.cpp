#include "core/steering.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace wire::core {

std::uint32_t resize_pool(const std::vector<double>& upcoming,
                          double charging_unit,
                          std::uint32_t slots_per_instance,
                          double leftover_fraction) {
  WIRE_REQUIRE(charging_unit > 0.0, "charging unit must be positive");
  WIRE_REQUIRE(slots_per_instance > 0, "need at least one slot");
  if (upcoming.empty()) return 0;
  Alg3Packer packer(charging_unit, slots_per_instance, leftover_fraction);
  for (double occupancy : upcoming) packer.add(occupancy);
  return packer.finish();
}

std::uint32_t resize_pool(const std::vector<double>& upcoming,
                          const std::vector<double>& mem_mb,
                          double charging_unit,
                          std::uint32_t slots_per_instance,
                          double leftover_fraction, double instance_mem_mb) {
  WIRE_REQUIRE(charging_unit > 0.0, "charging unit must be positive");
  WIRE_REQUIRE(slots_per_instance > 0, "need at least one slot");
  WIRE_REQUIRE(mem_mb.size() == upcoming.size(),
               "reservation vector must parallel the occupancies");
  if (upcoming.empty()) return 0;
  Alg3Packer packer(charging_unit, slots_per_instance, leftover_fraction,
                    instance_mem_mb);
  for (std::size_t i = 0; i < upcoming.size(); ++i) {
    packer.add(upcoming[i], mem_mb[i]);
  }
  return packer.finish();
}

sim::PoolCommand steer(const LookaheadResult& lookahead,
                       const sim::MonitorSnapshot& snapshot,
                       const sim::CloudConfig& config,
                       std::uint32_t* planned_size,
                       bool reclaim_draining,
                       PlanScratch* scratch,
                       double hazard_per_hour) {
  sim::PoolCommand cmd;

  // §III-D: Algorithm 3 assumes Q_task is non-empty; with an empty upcoming
  // load it retains a minimal pool until the next control iteration (or the
  // workflow terminates).
  std::uint32_t planned = 0;
  if (lookahead.upcoming.empty()) {
    planned = snapshot.incomplete_tasks > 0 ? 1u : 0u;
  } else if (lookahead.plan_valid) {
    // Stamped wavefront (quiet tick): the Algorithm-3 size was packed inline
    // during Q_task emission by the same Alg3Packer this function would run,
    // fed the identically clamped occupancies in the identical order —
    // consuming it skips the rebuild below without a bit of drift.
    planned = lookahead.planned_pool;
  } else {
    PlanScratch local_scratch;
    PlanScratch& s = scratch != nullptr ? *scratch : local_scratch;
    std::vector<double>& occupancy = s.occupancy;
    occupancy.clear();
    occupancy.reserve(lookahead.upcoming.size());
    const bool mem_on = config.memory.enabled();
    std::vector<double>& mem = s.occupancy_mem;
    mem.clear();
    if (mem_on) mem.reserve(lookahead.upcoming.size());
    for (const UpcomingTask& t : lookahead.upcoming) {
      // A task projected to be on a slot at the interval start physically
      // owns that slot: Algorithm 3's greedy packing must not time-multiplex
      // it with other work below one charging unit, or the conservative
      // minimum predictions ("about to complete") would let the packer
      // compress the currently running set onto fewer instances than are
      // actually occupied — a stable under-provisioning fixpoint. Pinning
      // on-slot tasks at a full unit reproduces the §III-E growth behaviour
      // (the pool reaches N within one charging unit for the linear
      // workflows of Figs. 2-3).
      occupancy.push_back(t.on_slot
                              ? std::max(t.remaining_occupancy,
                                         config.charging_unit_seconds)
                              : t.remaining_occupancy);
      if (mem_on) mem.push_back(t.mem_mb);
    }
    planned = mem_on
                  ? resize_pool(occupancy, mem, config.charging_unit_seconds,
                                config.slots_per_instance,
                                config.restart_cost_fraction,
                                config.memory.instance_mem_mb)
                  : resize_pool(occupancy, config.charging_unit_seconds,
                                config.slots_per_instance,
                                config.restart_cost_fraction);
  }

  if (hazard_per_hour > 0.0 && planned > 0) {
    // Crash-aware steering: under an exponential hazard lambda, an instance
    // bought for a charging unit u delivers only (1 - e^{-lambda u}) /
    // (lambda u) of it in expectation before crashing. Inflating the planned
    // pool by the reciprocal makes the *expected delivered* capacity match
    // the packed demand instead of the nominal one. hazard 0 (the flag off,
    // or no crash observed and no prior) leaves the plan bit-identical.
    const double lambda_u =
        hazard_per_hour / 3600.0 * config.charging_unit_seconds;
    const double factor = lambda_u / (1.0 - std::exp(-lambda_u));
    planned = static_cast<std::uint32_t>(
        std::ceil(static_cast<double>(planned) * factor));
  }

  if (planned_size != nullptr) *planned_size = planned;

  // Multi-tenant runs impose an external pool ceiling (the site arbiter's
  // share). The unconstrained Algorithm-3 size stays the reported demand
  // signal; the command steers toward the clamped size, so capacity beyond
  // the share is neither requested (to be clipped) nor held (instances above
  // the ceiling drain at their charge boundaries once the share shrinks).
  cmd.desired_pool = planned;
  // pool_cap == 0 is a genuine zero share (growth blocked), distinct from
  // the kNoInstanceCap "no ceiling" sentinel. A zero share must not strand
  // the job: while work remains, keep one already-live instance rather than
  // draining the last capacity a growth-blocked tenant can never regrow.
  std::uint32_t p = snapshot.pool_cap != sim::kNoInstanceCap
                        ? std::min(planned, snapshot.pool_cap)
                        : planned;
  if (p == 0 && snapshot.incomplete_tasks > 0 && !snapshot.instances.empty()) {
    p = 1;
  }

  const std::uint32_t m = stable_pool(snapshot);

  if (p > m) {
    std::uint32_t deficit = p - m;
    if (reclaim_draining) {
      // Cancelling a drain restores capacity instantly and costs nothing
      // extra (the unit keeps running) — always preferable to a boot. A
      // revoking drain is not worth reclaiming: the provider kills it soon
      // regardless.
      for (const sim::InstanceObservation& inst : snapshot.instances) {
        if (deficit == 0) break;
        if (inst.draining && !inst.revoking) {
          cmd.cancel_drains.push_back(inst.id);
          --deficit;
        }
      }
    }
    cmd.grow = deficit;
    return cmd;
  }
  if (p >= m) return cmd;

  // Shrink. The lookahead only charges tasks projected to survive the
  // interval, and its occupancy predictions are conservative *minimums*
  // ("about to complete"): a task that has already sunk real time into an
  // instance would pay that cost again if the drain beats its actual
  // completion, so the release decision also respects the observed sunk cost
  // at the drain moment (elapsed so far + time to the charge boundary).
  std::vector<VictimCandidate> local_candidates;
  release_cheapest(
      snapshot, config, m, p,
      [&](const sim::InstanceObservation& inst) {
        const auto it = lookahead.restart_cost.find(inst.id);
        const double projected =
            it != lookahead.restart_cost.end() ? it->second : 0.0;
        return sunk_cost_at_risk(inst, snapshot, config,
                                 inst.time_to_next_charge, projected);
      },
      scratch != nullptr ? scratch->candidates : local_candidates, cmd);
  return cmd;
}

std::uint32_t stable_pool(const sim::MonitorSnapshot& snapshot) {
  std::uint32_t m = 0;
  for (const sim::InstanceObservation& inst : snapshot.instances) {
    if (!inst.draining && !inst.revoking) ++m;
  }
  return m;
}

double sunk_cost_at_risk(const sim::InstanceObservation& inst,
                         const sim::MonitorSnapshot& snapshot,
                         const sim::CloudConfig& config, double horizon,
                         double floor) {
  double cost = floor;
  if (config.checkpoint.enabled()) {
    for (dag::TaskId task : inst.running_tasks) {
      const sim::TaskObservation& obs = snapshot.tasks[task];
      cost = std::max(cost, std::max(0.0, obs.elapsed + horizon -
                                              obs.checkpointed_exec));
    }
    return cost;
  }
  for (dag::TaskId task : inst.running_tasks) {
    cost = std::max(cost, snapshot.tasks[task].elapsed + horizon);
  }
  return cost * (1.0 - config.checkpoint_fraction);
}

}  // namespace wire::core
