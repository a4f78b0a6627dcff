#include "policies/budget.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/steering.h"
#include "util/check.h"

namespace wire::policies {
namespace {

/// Counterpart of sim::cloud's kBillingEps, on the *started* side: a unit
/// counts as committed the instant its window opens (cloud.cpp forgives the
/// first epsilon when an instance stops exactly on a boundary, but a policy
/// planning at that instant can no longer drain before the new unit runs —
/// the earliest drain is the *next* boundary). Rounding the corner up keeps
/// the projection conservative: the mirror may briefly over-count a row by
/// one unit at an exact boundary, never under-count it.
constexpr double kStartedEps = 1e-6;

/// Units a ready row has started after `elapsed` seconds alive (>= 1: the
/// first unit starts at boot).
double units_started(double elapsed, double charging_unit) {
  return std::max(1.0, std::ceil((elapsed + kStartedEps) / charging_unit));
}

std::string mode_tag(BudgetMode mode) {
  switch (mode) {
    case BudgetMode::kHardCap:
      return "hard";
    case BudgetMode::kLinearTaper:
      return "taper";
    case BudgetMode::kDeadlineAware:
      return "deadline";
  }
  return "?";
}

}  // namespace

BudgetPolicy::BudgetPolicy(std::unique_ptr<sim::ScalingPolicy> inner,
                           const BudgetOptions& options)
    : options_(options), inner_(std::move(inner)) {
  WIRE_REQUIRE(inner_ != nullptr, "budget policy needs a wrapped policy");
  WIRE_REQUIRE(options_.budget_units >= 0.0, "budget must be non-negative");
  WIRE_REQUIRE(options_.budget_units == 0.0 ||
                   options_.mode != BudgetMode::kDeadlineAware ||
                   options_.deadline_seconds > 0.0,
               "deadline-aware budgeting needs a positive deadline");
}

std::string BudgetPolicy::name() const {
  // Disabled is a pure passthrough, name included: reports from budget-off
  // runs must be byte-identical to unwrapped ones.
  if (!enabled()) return inner_->name();
  char buf[64];
  std::snprintf(buf, sizeof(buf), "+budget-%s-%g", mode_tag(options_.mode).c_str(),
                options_.budget_units);
  return inner_->name() + buf;
}

void BudgetPolicy::on_run_start(const dag::Workflow& workflow,
                                const sim::CloudConfig& config) {
  charging_unit_ = config.charging_unit_seconds;
  lag_seconds_ = config.lag_seconds;
  live_committed_.clear();
  retired_units_ = 0.0;
  live_units_ = 0.0;
  inner_->on_run_start(workflow, config);
}

double BudgetPolicy::remaining_units() const {
  return std::max(0.0, options_.budget_units - committed_units());
}

void BudgetPolicy::refresh_spend(const sim::MonitorSnapshot& snapshot) {
  // One sweep: bump every live ready row to its current started-unit count
  // (monotone — a dropout tick's stale snapshot can only repeat old values),
  // then retire map entries whose instance vanished since the last tick.
  // Provisioning rows are not committed yet (a cancelled or boot-failed
  // instance bills zero); their obligation is charged by the burn projection
  // in plan() instead.
  for (const sim::InstanceObservation& inst : snapshot.instances) {
    if (inst.provisioning) continue;
    const double units =
        units_started(snapshot.now - inst.ready_at, charging_unit_);
    auto [it, inserted] = live_committed_.try_emplace(inst.id, units);
    if (!inserted) it->second = std::max(it->second, units);
  }
  for (auto it = live_committed_.begin(); it != live_committed_.end();) {
    bool alive = false;
    for (const sim::InstanceObservation& inst : snapshot.instances) {
      if (inst.id == it->first) {
        alive = !inst.provisioning;
        break;
      }
    }
    if (alive) {
      ++it;
    } else {
      retired_units_ += it->second;
      it = live_committed_.erase(it);
    }
  }
  live_units_ = 0.0;
  for (const auto& [id, units] : live_committed_) live_units_ += units;
}

sim::PoolCommand BudgetPolicy::plan(const sim::MonitorSnapshot& snapshot) {
  sim::PoolCommand cmd = inner_->plan(snapshot);
  if (!enabled()) return cmd;

  refresh_spend(snapshot);
  const double u = charging_unit_;
  // The projection horizon is one control interval: every unit that can
  // start before the next plan() gets to react must be paid for now.
  const double h = lag_seconds_;
  const double remaining = options_.budget_units - committed_units();

  // ---- Classify the command's kept pool and its projected burn. ----------
  // Burn = charging units newly starting in (now, now + h] if the command
  // stands, counted per row by core::units_starting_within. Boots in flight
  // and grow requests carry committed-first-unit semantics: their first unit
  // is owed whenever they land, horizon or not.
  struct Kept {
    sim::InstanceId id = sim::kInvalidInstance;
    double burn = 0.0;
    /// Sort key: time to the row's next unit start (boots: time to ready).
    double key = 0.0;
  };
  std::vector<Kept> ready_kept;    // ready, not draining/revoking/released
  std::vector<Kept> boots_kept;    // provisioning, not released
  std::vector<Kept> cancels_kept;  // draining rows the inner cmd reclaims
  auto released = [&cmd](sim::InstanceId id) {
    for (const sim::Release& r : cmd.releases) {
      if (r.instance == id) return true;
    }
    return false;
  };
  auto cancelled = [&cmd](sim::InstanceId id) {
    return std::find(cmd.cancel_drains.begin(), cmd.cancel_drains.end(), id) !=
           cmd.cancel_drains.end();
  };
  double burn = 0.0;
  for (const sim::InstanceObservation& inst : snapshot.instances) {
    if (released(inst.id)) continue;  // drains at boundary / dies now: no new units
    if (inst.provisioning) {
      const double delta = std::max(0.0, inst.ready_at - snapshot.now);
      const double b =
          std::max(1.0, core::units_starting_within(delta, h, u));
      boots_kept.push_back(Kept{inst.id, b, delta});
      burn += b;
      continue;
    }
    if (inst.draining) {
      if (!cancelled(inst.id)) continue;  // expires at its boundary: no burn
      const double b =
          core::units_starting_within(inst.time_to_next_charge, h, u);
      cancels_kept.push_back(Kept{inst.id, b, inst.time_to_next_charge});
      burn += b;
      continue;
    }
    // Revoking rows are kept conservatively: the provider may bill their
    // recharges until the revocation lands, and releasing them saves
    // nothing the provider was not about to take anyway.
    const double b =
        core::units_starting_within(inst.time_to_next_charge, h, u);
    ready_kept.push_back(Kept{inst.id, b, inst.time_to_next_charge});
    burn += b;
  }
  const double grow_burn =
      std::max(1.0, core::units_starting_within(lag_seconds_, h, u));
  const std::uint32_t inner_grow = cmd.grow;
  std::uint32_t grow = inner_grow;
  burn += static_cast<double>(grow) * grow_burn;

  auto pool_target = [&]() {
    return static_cast<std::uint32_t>(ready_kept.size() + boots_kept.size() +
                                      cancels_kept.size()) +
           grow;
  };
  const std::uint32_t inner_target = pool_target();
  const std::uint32_t desired =
      cmd.desired_pool > 0 ? cmd.desired_pool : std::max(inner_target, 1u);

  // ---- Mode shaping: a soft pool cap ahead of the hard projection. -------
  std::uint32_t cap = sim::kNoInstanceCap;
  switch (options_.mode) {
    case BudgetMode::kHardCap:
      break;
    case BudgetMode::kLinearTaper: {
      const double frac = std::clamp(
          remaining / options_.budget_units, 0.0, 1.0);
      cap = std::max<std::uint32_t>(
          1, static_cast<std::uint32_t>(
                 std::ceil(static_cast<double>(desired) * frac)));
      break;
    }
    case BudgetMode::kDeadlineAware: {
      // Spend the remaining budget at the rate the deadline slack allows:
      // a pool of P burns P units every u seconds, so P = remaining * u /
      // time_left lands at the deadline as the budget runs out. Inside the
      // last interval the deadline no longer constrains (all-out; the hard
      // projection still binds).
      const double time_left = options_.deadline_seconds - snapshot.now;
      if (time_left > h) {
        cap = std::max<std::uint32_t>(
            1, static_cast<std::uint32_t>(
                   std::floor(std::max(0.0, remaining) * u / time_left)));
      }
      break;
    }
  }

  // ---- Tighten toward the caps, cheapest capacity first. -----------------
  // Shrink order: give back reclaimed drains (they just keep draining), cut
  // grow requests, cancel the boots that arrive last, then drain the ready
  // rows whose unit recharges soonest (largest near-term saving). Ties break
  // on id: deterministic replay is part of the policy contract.
  std::sort(cancels_kept.begin(), cancels_kept.end(),
            [](const Kept& a, const Kept& b) {
              if (a.key != b.key) return a.key < b.key;
              return a.id < b.id;
            });
  std::sort(boots_kept.begin(), boots_kept.end(),
            [](const Kept& a, const Kept& b) {
              if (a.key != b.key) return a.key > b.key;
              return a.id > b.id;
            });
  std::sort(ready_kept.begin(), ready_kept.end(),
            [](const Kept& a, const Kept& b) {
              if (a.key != b.key) return a.key < b.key;
              return a.id < b.id;
            });
  std::size_t next_cancel = 0, next_boot = 0, next_ready = 0;
  std::vector<sim::InstanceId> dropped_cancels;
  auto tighten_one = [&]() -> bool {
    if (next_cancel < cancels_kept.size()) {
      burn -= cancels_kept[next_cancel].burn;
      dropped_cancels.push_back(cancels_kept[next_cancel].id);
      ++next_cancel;
      return true;
    }
    if (grow > 0) {
      --grow;
      burn -= grow_burn;
      return true;
    }
    if (next_boot < boots_kept.size()) {
      burn -= boots_kept[next_boot].burn;
      // An immediate release of a provisioning instance cancels the boot:
      // it never becomes ready and bills nothing.
      cmd.releases.push_back(
          sim::Release{boots_kept[next_boot].id, /*at_charge_boundary=*/false});
      ++next_boot;
      return true;
    }
    if (next_ready < ready_kept.size()) {
      burn -= ready_kept[next_ready].burn;
      cmd.releases.push_back(
          sim::Release{ready_kept[next_ready].id, /*at_charge_boundary=*/true});
      ++next_ready;
      return true;
    }
    return false;
  };
  auto shrunk_target = [&]() {
    const std::uint32_t dropped = static_cast<std::uint32_t>(
        next_cancel + next_boot + next_ready);
    const std::uint32_t base = inner_target - inner_grow + grow;
    return base > dropped ? base - dropped : 0u;
  };
  if (cap != sim::kNoInstanceCap) {
    while (shrunk_target() > cap && tighten_one()) {
    }
  }
  // The hard pass: never let the projected spend pass the budget while more
  // than the minimum-progress pool remains. At the floor (one instance) the
  // job keeps inching forward even exhausted — the overrun is the floor's
  // burn, by design, instead of a deadlock.
  while (committed_units() + burn > options_.budget_units &&
         shrunk_target() > 1 && tighten_one()) {
  }
  if (shrunk_target() == 0 && snapshot.incomplete_tasks > 0) {
    // Minimum-progress floor from nothing: everything died (or the inner
    // policy went idle) with work remaining — boot one instance even if the
    // budget cannot pay for it. Unreachable through tightening (both loops
    // stop at one kept instance); only an inner command with no pool at all
    // lands here.
    grow = 1;
  }
  cmd.grow = grow;
  if (!dropped_cancels.empty()) {
    cmd.cancel_drains.erase(
        std::remove_if(cmd.cancel_drains.begin(), cmd.cancel_drains.end(),
                       [&](sim::InstanceId id) {
                         return std::find(dropped_cancels.begin(),
                                          dropped_cancels.end(),
                                          id) != dropped_cancels.end();
                       }),
        cmd.cancel_drains.end());
  }

  // The demand signal under budget: bid what the throttled command actually
  // steers toward, never more than the wrapped policy wanted — an arbiter
  // granting capacity this job cannot pay for starves everyone else.
  cmd.desired_pool = std::max(1u, std::min(desired, std::max(shrunk_target(),
                                                             grow)));
  cmd.remaining_budget_units = std::max(0.0, remaining);
  return cmd;
}

}  // namespace wire::policies
