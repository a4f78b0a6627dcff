// The resource-steering policy: paper Algorithms 2 and 3.
//
// Algorithm 3 sizes the worker pool by greedily bin-packing the upcoming
// load's predicted remaining occupancy times into instance slots, counting an
// instance only once its slots are filled for at least one full charging
// unit. Algorithm 2 grows or shrinks the current pool toward that size,
// releasing an instance only when its charging unit expires before the next
// interval (r_j <= t) and the sunk cost of restarting its tasks is below the
// configurable threshold (0.2u by default).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/lookahead.h"
#include "core/plan_scratch.h"
#include "sim/config.h"
#include "sim/monitor.h"
#include "sim/scaling_policy.h"

namespace wire::core {

/// The one implementation of Algorithm 3's greedy packer, consumed one
/// occupancy at a time. `resize_pool` drives it over a whole vector; the
/// lookahead skeleton drives the identical object online — both for the
/// adaptive horizon cap's stopping rule and to stamp the projected wavefront
/// with a steering-ready planned pool size during Q_task emission. One
/// implementation is what makes the stamped and from-scratch plan paths
/// bit-equal by construction: the packing arithmetic cannot drift between
/// two hand-synchronized copies.
class Alg3Packer {
 public:
  /// `instance_mem_mb` > 0 turns on memory-aware packing: the open virtual
  /// instance additionally fills up when its booked reservations exceed the
  /// capacity, forcing the same retire/advance step a full slot set does —
  /// the packer waits for earlier occupancies to retire before the
  /// over-capacity entry can co-reside, exactly as the dispatcher's
  /// admission would. 0 (the default) is bit-identical to the pre-memory
  /// packer for every add().
  Alg3Packer(double charging_unit, std::uint32_t slots_per_instance,
             double leftover_fraction = 0.2, double instance_mem_mb = 0.0)
      : charging_unit_(charging_unit),
        slots_(slots_per_instance),
        leftover_fraction_(leftover_fraction),
        mem_cap_(instance_mem_mb) {
    slot_used_.reserve(slots_);
    if (mem_cap_ > 0.0) slot_mem_.reserve(slots_);
  }

  /// Main-loop instance count after the occupancies consumed so far. A lower
  /// bound on the final count (the packer is online: its state after i
  /// entries is independent of later ones, and the leftover rule only ever
  /// adds one) — the adaptive horizon cap's stopping rule.
  std::uint32_t count() const { return p_; }

  void add(double occupancy, double mem_mb = 0.0) {
    slot_used_.push_back(occupancy);
    if (mem_cap_ > 0.0) {
      slot_mem_.push_back(mem_mb);
      mem_used_ += mem_mb;
    }
    // The `> 1` guard keeps a single over-capacity entry (possible only if
    // the caller's reservations are not capacity-clamped) from spinning the
    // retire loop: alone on the instance is the best packing available.
    while (slot_used_.size() == slots_ ||
           (mem_cap_ > 0.0 && slot_used_.size() > 1 &&
            mem_used_ > mem_cap_ + 1e-9)) {
      const double t_min =
          *std::min_element(slot_used_.begin(), slot_used_.end());
      t_used_ += t_min;
      if (t_used_ >= charging_unit_) {
        ++p_;
        t_used_ = 0.0;
        slot_used_.clear();
        if (mem_cap_ > 0.0) {
          slot_mem_.clear();
          mem_used_ = 0.0;
        }
      } else {
        // Retire the slots that finish at t_min; advance the others in
        // place (stable compaction — same values, same order, no per-step
        // allocation). Retired slots release their reservations.
        std::size_t w = 0;
        for (std::size_t r = 0; r < slot_used_.size(); ++r) {
          if (slot_used_[r] != t_min) {
            slot_used_[w] = slot_used_[r] - t_min;
            if (mem_cap_ > 0.0) slot_mem_[w] = slot_mem_[r];
            ++w;
          } else if (mem_cap_ > 0.0) {
            mem_used_ -= slot_mem_[r];
          }
        }
        slot_used_.resize(w);
        if (mem_cap_ > 0.0) slot_mem_.resize(w);
      }
    }
  }

  /// Algorithm 3's line-28 epilogue: an extra instance for a residual load
  /// exceeding `leftover_fraction` of the charging unit (or when none was
  /// planned at all). Returns the final planned pool size; the packer state
  /// is not consumed (finish() is pure).
  std::uint32_t finish() const {
    const double leftover_max =
        slot_used_.empty()
            ? 0.0
            : *std::max_element(slot_used_.begin(), slot_used_.end());
    std::uint32_t p = p_;
    if (p == 0 || leftover_max > leftover_fraction_ * charging_unit_) {
      ++p;
    }
    return p;
  }

 private:
  double charging_unit_;
  std::size_t slots_;
  double leftover_fraction_;
  /// Instance memory capacity, MB; 0 = memory-unaware packing.
  double mem_cap_;
  std::vector<double> slot_used_;
  /// Parallel reservations of the open slots (memory-aware only).
  std::vector<double> slot_mem_;
  double mem_used_ = 0.0;
  double t_used_ = 0.0;
  std::uint32_t p_ = 0;
};

/// Algorithm 3: resizing the worker pool. `upcoming` is Q_task's predicted
/// minimum remaining occupancy times in poll order; `charging_unit` is u;
/// `slots_per_instance` is l; `leftover_fraction` is the line-28 threshold
/// (an extra instance is planned when the residual load exceeds this fraction
/// of u). Returns the planned pool size p (>= 1 whenever `upcoming` is
/// non-empty; 0 only for an empty load).
std::uint32_t resize_pool(const std::vector<double>& upcoming,
                          double charging_unit,
                          std::uint32_t slots_per_instance,
                          double leftover_fraction = 0.2);

/// Memory-aware Algorithm 3: `mem_mb` carries the projected reservation of
/// each entry, parallel to `upcoming`, and `instance_mem_mb` the per-instance
/// capacity. With capacity 0 this is exactly the memory-unaware overload.
std::uint32_t resize_pool(const std::vector<double>& upcoming,
                          const std::vector<double>& mem_mb,
                          double charging_unit,
                          std::uint32_t slots_per_instance,
                          double leftover_fraction, double instance_mem_mb);

/// Live instances that are neither draining nor under a revocation notice:
/// the pool Algorithm 2 counts as stable at the start of the next interval
/// (draining rows expire within it; the provider reclaims announced rows on
/// its own schedule).
std::uint32_t stable_pool(const sim::MonitorSnapshot& snapshot);

/// Restart cost at risk if `inst` is drained `horizon` seconds from now: the
/// largest sunk cost among its running tasks, never below `floor`. Under
/// scheduled checkpointing a killed task restarts from its last committed
/// checkpoint, so each task charges its unsalvaged progress (elapsed +
/// horizon beyond the durable prefix); otherwise it charges elapsed +
/// horizon, discounted by the legacy salvage fraction
/// CloudConfig::checkpoint_fraction (floor included).
double sunk_cost_at_risk(const sim::InstanceObservation& inst,
                         const sim::MonitorSnapshot& snapshot,
                         const sim::CloudConfig& config, double horizon,
                         double floor);

/// Algorithm 2's release rule, the one copy shared by steer() and the
/// baselines that borrow its discipline. Candidates are Ready instances, not
/// draining or revoking (a revoking row is already excluded from the stable
/// pool; releasing it would double-count the loss), whose charging unit
/// expires before the next interval (time_to_next_charge <= lag) and whose
/// restart cost `cost_of(inst)` is at most restart_cost_fraction * u. They
/// drain at their charge boundary cheapest first ("selects the instances to
/// terminate to minimize task restart costs") until the stable pool
/// `stable` reaches `target`. `candidates` is the caller's buffer.
template <class CostFn>
void release_cheapest(const sim::MonitorSnapshot& snapshot,
                      const sim::CloudConfig& config, std::uint32_t stable,
                      std::uint32_t target, CostFn&& cost_of,
                      std::vector<VictimCandidate>& candidates,
                      sim::PoolCommand& cmd) {
  candidates.clear();
  for (const sim::InstanceObservation& inst : snapshot.instances) {
    if (inst.provisioning || inst.draining || inst.revoking) continue;
    if (inst.time_to_next_charge > config.lag_seconds) continue;
    const double cost = cost_of(inst);
    if (cost > config.restart_cost_fraction * config.charging_unit_seconds) {
      continue;
    }
    candidates.push_back(VictimCandidate{inst.id, cost});
  }
  // The comparator is a total order (instance ids are unique), so the victim
  // sequence is deterministic regardless of the standard library's sort
  // internals — a bare key comparison would leave equal-cost ties in an
  // implementation-defined order and silently break byte-identical replay.
  std::sort(candidates.begin(), candidates.end(),
            [](const VictimCandidate& a, const VictimCandidate& b) {
              if (a.restart_cost != b.restart_cost) {
                return a.restart_cost < b.restart_cost;
              }
              return a.id < b.id;
            });
  for (const VictimCandidate& c : candidates) {
    if (stable == target) break;
    cmd.releases.push_back(sim::Release{c.id, /*at_charge_boundary=*/true});
    --stable;
  }
}

/// Algorithm 2: forms the grow/release command toward the planned size,
/// clamped to MonitorSnapshot::pool_cap when an external ceiling is imposed
/// (multi-tenant arbiter share); the unclamped Algorithm-3 size is reported
/// through `planned_size` and PoolCommand::desired_pool.
/// Victims are chosen by release_cheapest, each priced by sunk_cost_at_risk
/// at its charge boundary (horizon time_to_next_charge) with the lookahead's
/// projected restart cost c_j as the floor.
///
/// Plan-phase incrementality: when `lookahead.plan_valid` is set (the
/// incremental lookahead stamped the wavefront on a quiet tick), the
/// Algorithm-3 size is consumed directly from `lookahead.planned_pool` —
/// packed inline during Q_task emission by the same Alg3Packer — instead of
/// rebuilding the clamped occupancy vector and re-packing it here. Unstamped
/// results (the from-scratch reference, every fallback classification,
/// hand-built fixtures) take the full rebuild path. Both paths are
/// bit-identical by construction; the differential chaos suite asserts it
/// at every control tick.
///
/// `scratch`, when non-null, lends reusable buffers for the occupancy
/// rebuild and the victim-candidate list (persistent controllers); null
/// keeps self-contained local buffers (tests, one-shot callers).
///
/// `hazard_per_hour` > 0 turns on crash-aware steering: the planned pool is
/// inflated by lambda*u / (1 - e^{-lambda*u}) — the reciprocal of the
/// expected fraction of a charging unit an instance delivers before an
/// exponential crash at rate lambda — so expected delivered capacity matches
/// the packed demand on a crashy cloud. 0 (the default) is bit-identical to
/// hazard-blind steering.
sim::PoolCommand steer(const LookaheadResult& lookahead,
                       const sim::MonitorSnapshot& snapshot,
                       const sim::CloudConfig& config,
                       std::uint32_t* planned_size = nullptr,
                       bool reclaim_draining = false,
                       PlanScratch* scratch = nullptr,
                       double hazard_per_hour = 0.0);

/// Charging units that newly start in (now, now + horizon] for a row whose
/// next unit begins `first_start_delta` seconds from now, recharging every
/// `charging_unit` seconds thereafter: the recharge count of
/// policies::BudgetPolicy's burn projection.
inline double units_starting_within(double first_start_delta, double horizon,
                                    double charging_unit) {
  if (first_start_delta > horizon) return 0.0;
  return 1.0 + std::floor((horizon - first_start_delta) / charging_unit);
}

}  // namespace wire::core
