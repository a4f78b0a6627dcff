// The site arbiter: partitions one shared instance cap among live tenants.
//
// Per-tenant cap semantics (the contract every strategy obeys):
//
//   1. `share[i] >= live_instances[i]` — a share never drops below what the
//      tenant currently holds. The arbiter does not preempt: capacity flows
//      between tenants only as their own scaling policies release instances
//      (at charge boundaries, under the steering discipline). A tenant whose
//      share shrank below its previous value simply cannot grow until its
//      pool drains down.
//   2. `sum(share) <= site_cap` — shares are an exclusive partition of the
//      site. Together with (1) and the engine-side grow clipping this makes
//      `sum(live) <= site_cap` an invariant at every event, not just at
//      control ticks.
//   3. Allocation is a pure function of (strategy, site_cap, tenants) with
//      deterministic tie-breaking (arrival time, then job id), so ensemble
//      runs are byte-reproducible.
//
// Strategies:
//   FifoExclusive   — the whole site goes to the oldest unfinished job;
//                     later arrivals wait in a FIFO queue (batch-queue
//                     semantics, the zero-sharing baseline).
//   StaticFairShare — every live tenant is entitled to ~cap/n; spare
//                     capacity beyond the entitlements is handed out
//                     round-robin in arrival order.
//   DemandWeighted  — spare capacity (cap - sum(live)) is split in
//                     proportion to each tenant's unmet demand, where demand
//                     is the pool size the tenant's controller last asked
//                     for (PoolCommand::desired_pool — WIRE's unclamped
//                     Algorithm-3 size, the reactive baselines' load
//                     target). Capacity nobody demands stays unallocated
//                     and is re-offered at the next reallocation.
//   BudgetWeighted  — tenants bid with their unmet demand *scaled by
//                     remaining budget* (TenantDemand::remaining_budget_units,
//                     the spend signal a policies::BudgetPolicy reports
//                     through the engine): money left to burn is what turns
//                     demand into a credible bid. An exhausted tenant
//                     (remaining == 0) bids nothing beyond the
//                     minimum-progress floor — one instance while it has
//                     unmet demand — and a tenant that reports no budget at
//                     all (-1) bids as if one unit remained, so mixed
//                     budgeted/unbudgeted ensembles stay well-defined.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/config.h"

namespace wire::ensemble {

enum class ArbiterStrategy {
  FifoExclusive,
  StaticFairShare,
  DemandWeighted,
  BudgetWeighted,
};

const char* strategy_name(ArbiterStrategy strategy);

/// All four strategies, in the order above (bench sweeps).
std::vector<ArbiterStrategy> all_strategies();

/// One tenant's state as the arbiter sees it.
struct TenantDemand {
  std::uint32_t job = 0;
  sim::SimTime arrival_seconds = 0.0;
  /// Instances the tenant currently holds (provisioning + ready) — the floor
  /// of its share.
  std::uint32_t live_instances = 0;
  /// Pool size the tenant's controller wants (>= 1 for a tenant that still
  /// has work; waiting tenants report their bootstrap size).
  std::uint32_t requested_pool = 0;
  /// Projected memory demand (MB) the tenant's controller reported
  /// (JobEngine::requested_mem_mb); 0.0 = not reported. Only consulted by
  /// memory-aware arbitration (ArbiterConfig::instance_mem_mb > 0).
  double requested_mem_mb = 0.0;
  /// Checkpoint bytes (MB) the tenant's running set would write
  /// (JobEngine::checkpoint_demand_mb); 0.0 = no checkpoint pressure. Only
  /// consulted by checkpoint-channel arbitration
  /// (ArbiterConfig::checkpoint_bandwidth_mb_per_s > 0).
  double checkpoint_mb = 0.0;
  /// Charging units of budget the tenant has left to spend
  /// (JobEngine::remaining_budget_units); -1.0 = no budget reported, 0.0 =
  /// exhausted. Only consulted by BudgetWeighted arbitration.
  double remaining_budget_units = -1.0;

  friend bool operator==(const TenantDemand&, const TenantDemand&) = default;
};

/// Site-level arbitration parameters beyond the strategy itself.
struct ArbiterConfig {
  /// Shared instance cap; must be >= 1.
  std::uint32_t site_cap = 0;
  /// Per-instance memory capacity (MB). When > 0, DemandWeighted lifts each
  /// tenant's effective requested pool to at least
  /// ceil(requested_mem_mb / instance_mem_mb) — a tenant whose projected
  /// footprint cannot fit its instance-count demand bids for enough
  /// instances to hold it. 0 (the default) reproduces the instance-only
  /// arbitration byte-identically.
  double instance_mem_mb = 0.0;
  /// Shared checkpoint-channel bandwidth (CheckpointConfig's
  /// channel_bandwidth_mb_per_s). When > 0, allocate_checkpoint_windows
  /// arbitrates the channel among tenants with checkpoint pressure; 0 (the
  /// default) disables channel arbitration entirely.
  double checkpoint_bandwidth_mb_per_s = 0.0;
  /// Cooperative staggering: serialize tenants' channel access into
  /// round-robin windows instead of diluting the bandwidth.
  bool stagger_checkpoints = false;
  /// Staggering round length (seconds); each of the n demanding tenants gets
  /// a 1/n slice per round. Must be > 0 when stagger_checkpoints is set.
  double stagger_period_seconds = 0.0;
};

/// One tenant's grant on the shared checkpoint channel.
struct CheckpointGrant {
  /// Channel share (MB/s) the tenant may write at.
  double bandwidth_mb_per_s = 0.0;
  /// Staggering window in site time: writes may start in
  /// [offset + k*period, offset + k*period + length). period 0 = always open.
  sim::SimTime window_offset_seconds = 0.0;
  double window_length_seconds = 0.0;
  double window_period_seconds = 0.0;

  friend bool operator==(const CheckpointGrant&,
                         const CheckpointGrant&) = default;
};

/// Partitions `config.site_cap` among `tenants` under `strategy`. Returns
/// one share per tenant, in input order, satisfying the contract documented
/// above. Requires site_cap >= 1 and sum(live_instances) <= site_cap.
/// `ArbiterConfig{cap}` is the plain instance-count arbitration.
std::vector<std::uint32_t> allocate_shares(
    ArbiterStrategy strategy, const ArbiterConfig& config,
    const std::vector<TenantDemand>& tenants);

/// Partitions the shared checkpoint channel among tenants, one grant per
/// tenant in input order. Pure and deterministic like allocate_shares (FIFO
/// tie-breaking by arrival, then job id). Without staggering, every tenant
/// gets bandwidth / max(1, n_demanding) and an always-open window —
/// concurrent cross-tenant writes dilute each other. With staggering, the
/// k-th demanding tenant (FIFO order) gets the full bandwidth inside its
/// exclusive slice [k*P/n, (k+1)*P/n) of each period P; tenants without
/// recorded pressure keep the full bandwidth and an open window (their
/// stray writes are corrected at the next reallocation — windows are
/// advisory, not a hard reservation). Requires
/// config.checkpoint_bandwidth_mb_per_s > 0.
std::vector<CheckpointGrant> allocate_checkpoint_windows(
    const ArbiterConfig& config, const std::vector<TenantDemand>& tenants);

}  // namespace wire::ensemble
