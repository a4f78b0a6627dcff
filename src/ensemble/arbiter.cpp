#include "ensemble/arbiter.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.h"

namespace wire::ensemble {

const char* strategy_name(ArbiterStrategy strategy) {
  switch (strategy) {
    case ArbiterStrategy::FifoExclusive: return "fifo-exclusive";
    case ArbiterStrategy::StaticFairShare: return "fair-share";
    case ArbiterStrategy::DemandWeighted: return "demand-weighted";
    case ArbiterStrategy::BudgetWeighted: return "budget-weighted";
  }
  return "unknown";
}

std::vector<ArbiterStrategy> all_strategies() {
  return {ArbiterStrategy::FifoExclusive, ArbiterStrategy::StaticFairShare,
          ArbiterStrategy::DemandWeighted, ArbiterStrategy::BudgetWeighted};
}

namespace {

/// Tenant indices in FIFO order: by arrival time, then job id. Inputs may
/// come in any order, but the ensemble driver passes its rows already FIFO,
/// so the sort only runs when an O(n) check finds them out of order.
std::vector<std::size_t> fifo_order(const std::vector<TenantDemand>& tenants) {
  std::vector<std::size_t> order(tenants.size());
  std::iota(order.begin(), order.end(), 0);
  const auto earlier = [&](std::size_t a, std::size_t b) {
    if (tenants[a].arrival_seconds != tenants[b].arrival_seconds) {
      return tenants[a].arrival_seconds < tenants[b].arrival_seconds;
    }
    return tenants[a].job < tenants[b].job;
  };
  if (!std::is_sorted(order.begin(), order.end(), earlier)) {
    std::sort(order.begin(), order.end(), earlier);
  }
  return order;
}

/// The largest-remainder round: one more instance for each of the `count`
/// rows with the largest nonzero remainders, ties to the earlier FIFO rank.
/// That is exactly the set a stable sort of `order` by descending remainder
/// would grant first, picked with nth_element instead of a sort. Returns the
/// number of rows granted (fewer than `count` only when fewer rows have a
/// remainder).
std::uint32_t grant_largest_remainders(
    std::uint32_t count, const std::vector<std::size_t>& order,
    const std::vector<std::uint64_t>& remainder,
    std::vector<std::uint32_t>& grant) {
  std::vector<std::size_t> ranks;  // FIFO ranks of rows with a remainder
  for (std::size_t k = 0; k < order.size(); ++k) {
    if (remainder[order[k]] > 0) ranks.push_back(k);
  }
  if (ranks.size() > count) {
    std::nth_element(ranks.begin(), ranks.begin() + count, ranks.end(),
                     [&](std::size_t a, std::size_t b) {
                       const std::uint64_t ra = remainder[order[a]];
                       const std::uint64_t rb = remainder[order[b]];
                       return ra != rb ? ra > rb : a < b;
                     });
    ranks.resize(count);
  }
  for (std::size_t k : ranks) ++grant[order[k]];
  return static_cast<std::uint32_t>(ranks.size());
}

void fifo_exclusive(std::uint32_t spare,
                    const std::vector<std::size_t>& order,
                    std::vector<std::uint32_t>& shares) {
  // The whole remaining site backs the oldest job; everyone else is frozen
  // at their floor (zero for jobs that were never admitted).
  shares[order.front()] += spare;
}

void static_fair_share(std::uint32_t site_cap, std::uint32_t spare,
                       const std::vector<std::size_t>& order,
                       std::vector<std::uint32_t>& shares) {
  // Equal entitlements cap/n, the integer remainder going to the earliest
  // arrivals. Tenants whose floor already exceeds their entitlement keep the
  // floor (no preemption); the others are lifted toward the entitlement one
  // instance at a time in arrival order, which keeps the split exact when
  // the spare runs out mid-pass.
  const std::uint32_t n = static_cast<std::uint32_t>(order.size());
  std::vector<std::uint32_t> entitlement(shares.size(), site_cap / n);
  for (std::uint32_t k = 0; k < site_cap % n; ++k) {
    ++entitlement[order[k]];
  }
  bool lifted = true;
  while (spare > 0 && lifted) {
    lifted = false;
    for (std::size_t i : order) {
      if (spare == 0) break;
      if (shares[i] < entitlement[i]) {
        ++shares[i];
        --spare;
        lifted = true;
      }
    }
  }
  // Entitlements sum to the cap, so spare survives the lifting only when
  // some floors sit above their entitlement; hand it out round-robin.
  while (spare > 0) {
    for (std::size_t i : order) {
      if (spare == 0) break;
      ++shares[i];
      --spare;
    }
  }
}

/// The tenant's effective requested pool: the controller's ask, lifted by
/// the memory footprint when a per-instance capacity is configured, clamped
/// to the site. Shared by the demand- and budget-weighted strategies so the
/// two bid on the same demand signal.
std::uint32_t effective_requested(const TenantDemand& tenant,
                                  std::uint32_t site_cap,
                                  double instance_mem_mb) {
  std::uint32_t requested = tenant.requested_pool;
  if (instance_mem_mb > 0.0 && tenant.requested_mem_mb > 0.0) {
    const double needed = std::ceil(tenant.requested_mem_mb / instance_mem_mb);
    if (needed > static_cast<double>(requested)) {
      requested = needed >= static_cast<double>(site_cap)
                      ? site_cap
                      : static_cast<std::uint32_t>(needed);
    }
  }
  return std::min(requested, site_cap);
}

void demand_weighted(std::uint32_t site_cap, double instance_mem_mb,
                     std::uint32_t spare,
                     const std::vector<TenantDemand>& tenants,
                     const std::vector<std::size_t>& order,
                     std::vector<std::uint32_t>& shares) {
  // Unmet demand: how far each tenant's effective requested pool sits above
  // its floor.
  std::vector<std::uint32_t> extra(tenants.size(), 0);
  std::uint64_t total_extra = 0;
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const std::uint32_t want =
        std::max(tenants[i].live_instances,
                 effective_requested(tenants[i], site_cap, instance_mem_mb));
    extra[i] = want - tenants[i].live_instances;
    total_extra += extra[i];
  }
  if (total_extra <= spare) {
    // Every demand fits; undemanded capacity stays unallocated until a
    // tenant asks for it at a later reallocation.
    for (std::size_t i = 0; i < shares.size(); ++i) shares[i] += extra[i];
    return;
  }
  // Largest-remainder proportional split of the spare over unmet demand —
  // exact integer arithmetic, so reallocation is deterministic. The
  // remainders sum to (spare - granted) * total_extra and each is below
  // total_extra, so enough rows carry one to hand out the whole spare. Rows
  // with no unmet demand skip the 64-bit divide, and a row asking for as
  // much as the previous asker reuses its quotient (waiting tenants all ask
  // for their bootstrap pool).
  std::vector<std::uint64_t> remainder(tenants.size(), 0);
  std::uint32_t granted = 0;
  std::uint32_t last_extra = 0;
  std::uint32_t last_grant = 0;
  std::uint64_t last_remainder = 0;
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    if (extra[i] == 0) continue;
    if (extra[i] != last_extra) {
      const std::uint64_t num = static_cast<std::uint64_t>(spare) *
                                static_cast<std::uint64_t>(extra[i]);
      last_extra = extra[i];
      last_grant = static_cast<std::uint32_t>(num / total_extra);
      last_remainder = num % total_extra;
    }
    remainder[i] = last_remainder;
    shares[i] += last_grant;
    granted += last_grant;
  }
  grant_largest_remainders(spare - granted, order, remainder, shares);
}

void budget_weighted(std::uint32_t site_cap, double instance_mem_mb,
                     std::uint32_t spare,
                     const std::vector<TenantDemand>& tenants,
                     const std::vector<std::size_t>& order,
                     std::vector<std::uint32_t>& shares) {
  // A tenant that reports no budget (-1) bids as if exactly one charging
  // unit remained — between an exhausted tenant (weight 0, floor only) and
  // any tenant with real money left.
  constexpr double kUnreportedUnits = 1.0;
  // Fixed-point weight scale: 1/16 charging unit of budget resolution is
  // plenty, and the clamp at 2^16 units keeps every bid product comfortably
  // inside 64 bits (bid <= extra * 2^20, num <= spare * 2^30 after the bid
  // clamp below).
  constexpr double kWeightScale = 16.0;
  constexpr double kMaxUnits = 65536.0;
  constexpr std::uint64_t kMaxBid = std::uint64_t{1} << 30;

  std::vector<std::uint32_t> extra(tenants.size(), 0);
  std::vector<std::uint64_t> weight(tenants.size(), 0);
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const std::uint32_t want =
        std::max(tenants[i].live_instances,
                 effective_requested(tenants[i], site_cap, instance_mem_mb));
    extra[i] = want - tenants[i].live_instances;
    const double r = tenants[i].remaining_budget_units;
    const double units = r < 0.0 ? kUnreportedUnits : std::min(r, kMaxUnits);
    weight[i] = static_cast<std::uint64_t>(
        std::llround(std::max(0.0, units) * kWeightScale));
    // Any strictly-positive remaining budget must bid above the exhausted
    // floor: below 1/32 of a charging unit llround truncates the weight to
    // 0, which would starve a nearly-broke (but solvent) tenant exactly
    // like one at 0 — contradicting the documented exhausted-floor
    // semantics. Floor the fixed-point weight at 1.
    if (weight[i] == 0 && units > 0.0) weight[i] = 1;
  }

  // Minimum-progress floor, in FIFO order: a tenant with unmet demand and
  // nothing live gets one instance before any bidding — an exhausted tenant
  // (or one whose instance just crashed) inches forward instead of being
  // starved to death at zero by the solvent bidders.
  for (std::size_t i : order) {
    if (spare == 0) break;
    if (tenants[i].live_instances == 0 && shares[i] == 0 && extra[i] > 0) {
      ++shares[i];
      --extra[i];
      --spare;
    }
  }
  if (spare == 0) return;

  std::vector<std::uint64_t> bid(tenants.size(), 0);
  std::uint64_t total_bid = 0;
  std::uint64_t weighted_extra = 0;
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    bid[i] = std::min(static_cast<std::uint64_t>(extra[i]) * weight[i], kMaxBid);
    total_bid += bid[i];
    if (weight[i] > 0) weighted_extra += extra[i];
  }
  if (total_bid == 0) return;  // only exhausted demand left: capacity waits
  if (weighted_extra <= spare) {
    // Every solvent demand fits; exhausted tenants stay at their floor and
    // unbacked capacity is re-offered at the next reallocation.
    for (std::size_t i = 0; i < shares.size(); ++i) {
      if (weight[i] > 0) shares[i] += extra[i];
    }
    return;
  }

  // Largest-remainder split of the spare over the budget-scaled bids, each
  // grant capped at the tenant's unmet demand; capacity freed by the caps is
  // re-offered round-robin in FIFO order to solvent tenants still short.
  // Only solvent rows still short of their demand compete in the remainder
  // round, so the others keep a zero remainder.
  std::vector<std::uint64_t> remainder(tenants.size(), 0);
  std::vector<std::uint32_t> grant(tenants.size(), 0);
  std::uint32_t granted = 0;
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    if (bid[i] == 0) continue;  // nothing bid: no grant, no remainder
    const std::uint64_t num = static_cast<std::uint64_t>(spare) * bid[i];
    grant[i] = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(num / total_bid, extra[i]));
    if (grant[i] < extra[i]) remainder[i] = num % total_bid;
    granted += grant[i];
  }
  granted += grant_largest_remainders(spare - granted, order, remainder, grant);
  bool moved = true;
  while (granted < spare && moved) {
    moved = false;
    for (std::size_t i : order) {
      if (granted == spare) break;
      if (weight[i] > 0 && grant[i] < extra[i]) {
        ++grant[i];
        ++granted;
        moved = true;
      }
    }
  }
  for (std::size_t i = 0; i < shares.size(); ++i) shares[i] += grant[i];
}

}  // namespace

std::vector<std::uint32_t> allocate_shares(
    ArbiterStrategy strategy, const ArbiterConfig& config,
    const std::vector<TenantDemand>& tenants) {
  const std::uint32_t site_cap = config.site_cap;
  WIRE_REQUIRE(site_cap >= 1, "site cap must be at least one instance");
  if (tenants.empty()) return {};

  std::uint64_t total_live = 0;
  for (const TenantDemand& t : tenants) total_live += t.live_instances;
  WIRE_REQUIRE(total_live <= site_cap,
               "tenants hold more instances than the site cap");

  // Floors: what each tenant already holds is never taken away.
  std::vector<std::uint32_t> shares(tenants.size());
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    shares[i] = tenants[i].live_instances;
  }
  const std::uint32_t spare =
      site_cap - static_cast<std::uint32_t>(total_live);
  const std::vector<std::size_t> order = fifo_order(tenants);

  switch (strategy) {
    case ArbiterStrategy::FifoExclusive:
      fifo_exclusive(spare, order, shares);
      break;
    case ArbiterStrategy::StaticFairShare:
      static_fair_share(site_cap, spare, order, shares);
      break;
    case ArbiterStrategy::DemandWeighted:
      demand_weighted(site_cap, config.instance_mem_mb, spare, tenants, order,
                      shares);
      break;
    case ArbiterStrategy::BudgetWeighted:
      budget_weighted(site_cap, config.instance_mem_mb, spare, tenants, order,
                      shares);
      break;
  }

  std::uint64_t total = 0;
  for (std::uint32_t s : shares) total += s;
  WIRE_CHECK(total <= site_cap, "arbiter over-allocated the site");
  return shares;
}

std::vector<CheckpointGrant> allocate_checkpoint_windows(
    const ArbiterConfig& config, const std::vector<TenantDemand>& tenants) {
  WIRE_REQUIRE(config.checkpoint_bandwidth_mb_per_s > 0.0,
               "checkpoint-channel arbitration needs a channel");
  const double bandwidth = config.checkpoint_bandwidth_mb_per_s;
  std::vector<CheckpointGrant> grants(tenants.size());
  std::uint32_t demanding = 0;
  for (const TenantDemand& t : tenants) {
    if (t.checkpoint_mb > 0.0) ++demanding;
  }
  if (!config.stagger_checkpoints) {
    // Concurrent co-sited writes interfere: every tenant sees its diluted
    // share of the channel, always open.
    const double share =
        bandwidth / static_cast<double>(std::max(demanding, 1u));
    for (CheckpointGrant& g : grants) g.bandwidth_mb_per_s = share;
    return grants;
  }
  WIRE_REQUIRE(config.stagger_period_seconds > 0.0,
               "staggering needs a positive period");
  // Cooperative staggering: serialize channel access. Demanding tenants get
  // the full bandwidth inside exclusive FIFO-ordered slices of each period;
  // the rest keep an open window at full bandwidth (no recorded pressure).
  for (CheckpointGrant& g : grants) g.bandwidth_mb_per_s = bandwidth;
  if (demanding == 0) return grants;
  const double period = config.stagger_period_seconds;
  const double slice = period / static_cast<double>(demanding);
  std::uint32_t k = 0;
  for (std::size_t i : fifo_order(tenants)) {
    if (tenants[i].checkpoint_mb <= 0.0) continue;
    grants[i].window_offset_seconds = static_cast<double>(k) * slice;
    grants[i].window_length_seconds = slice;
    grants[i].window_period_seconds = period;
    ++k;
  }
  return grants;
}

}  // namespace wire::ensemble
