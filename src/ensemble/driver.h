// The ensemble driver: runs a stream of workflow jobs on one shared cloud
// site. Each job gets its own FrameworkMaster + ScalingPolicy instance (a
// fresh one from the policy factory) wrapped in a sim::JobEngine; the driver
// multiplexes the engines over a single site clock, interleaving their
// discrete events in global time order. The SiteArbiter partitions the site
// instance cap among live jobs at every site event (see the execution
// model below); each tenant's engine enforces its share on the grow path and
// surfaces it to the tenant's policy through MonitorSnapshot::pool_cap.
//
// Tenant lifecycle (both driver loops): a tenant's memory follows the jobs
// the arbiter admitted, not the arrival stream.
//   - Waiting: from arrival until its share first reaches 1, a tenant is its
//     JobArrival plus its arbiter row (live 0, requested_pool =
//     initial_instances). Its cached share starts at sim::kNoInstanceCap and
//     no engine exists to install a cap on.
//   - Admission: the first rebalance that grants it a share >= 1
//     instantiates the workflow from its profile's WorkflowTemplate (built
//     once, at driver construction: the admission draws only the task
//     numbers and shares the graph), mints the policy, constructs the
//     engine, installs the share and starts the engine.
//   - Retirement: the JobOutcome is recorded from the engine's RunResult,
//     the dedicated-baseline replay runs, and the engine, policy, workflow
//     (its task numbers; the graph stays with the template) and RunResult
//     are freed, in that order. Only the JobOutcome remains until run()
//     returns.
// Construction is per-tenant and seeded by the arrival alone, so deferring
// it changes no event, RNG draw or share.
//
// Isolation contract: a tenant's policy sees only its own job — its DAG, its
// task observations, its instances, its share as pool_cap. Nothing about
// other tenants (not even their existence) leaks through the monitoring
// surface; cross-tenant coupling happens exclusively through the arbiter's
// capacity partition.
//
// pool_cap semantics under the arbiter: an admitted tenant always sees its
// explicit share (1..site_cap) — never sim::kNoInstanceCap, which would mean
// "no ceiling imposed". A share of 0 is reported as a genuine 0 (all growth
// blocked), no longer conflated with the unlimited sentinel; arbiters floor
// a tenant's share at its live instance count, so 0 can only reach a tenant
// that currently holds no instances.
//
// Execution model (windowed stepping, one thread): the driver repeatedly
// computes a horizon H = the earliest pending *demand-relevant* site event
// (next arrival, or any tenant's next ControlTick / InstanceDrain /
// InstanceCrash / fault-mode InstanceReady — see
// JobEngine::next_demand_event_time), advances every tenant's engine through
// its purely local events strictly below H, then processes exactly one site
// event (arrival, tracked tenant event, or retirement) and rebalances shares.
// Local events never read the instance cap and never move the demand signal,
// so advancing them ahead commutes with the site events and, without a
// checkpoint channel, the result is byte-identical to the event-at-a-time
// reference. EnsembleOptions::shards == 0 runs the same loop as that
// reference: the local advance is skipped, so every engine event is a site
// event, and every rebalance is a full one (tests/test_ensemble_windowed.cpp
// proves the equivalence differentially).
//
// Incremental serial phase: the driver keeps, in flat vectors parallel to
// the FIFO list of open tenants, each tenant's arbiter row (TenantDemand),
// its installed share and checkpoint grant, and its cached site-clock keys
// (next event, next demand-relevant event). A tenant's row and keys are
// re-read only when its engine state moved: it stepped (in the local
// advance or at the site event), arrived, was admitted, or had a checkpoint
// grant installed. The horizon, due-tenant and next-tenant selections are
// then passes over contiguous doubles, and the advance visits only due
// tenants. A rebalance with no changed row (and no arrival or retirement)
// skips allocate_shares, the checkpoint grants and every install — the
// allocation is a pure function of the rows — and emits its SiteSample from
// the cached shares; otherwise it installs caps and grants only where they
// moved. Rule for anyone adding an install: if it can schedule an engine
// event (set_checkpoint_channel re-arms the checkpoint guard), the tenant
// must be re-keyed right after it, or the cached keys go stale. The rows
// stay in arrival order, so the allocation arithmetic and its (arrival, job
// id) tie-breaks are those of the reference. With shards == 0 every
// rebalance re-reads and re-installs every row, which makes that mode the
// oracle for this bookkeeping.
//
// Policy-state sharing: the driver runs on the calling thread and steps one
// tenant at a time. A dedicated-baseline replay runs to completion inside
// retire(), between two engine steps of the main loop, so it too plans
// while every other policy is idle. No two policies are ever mid-plan() at
// once, and every policy the factory mints may share one core::PlanScratch
// (exp::sharded_policy_factory mints all WIRE controllers onto one arena).
// At most one policy per admitted tenant plus the one replay policy is
// alive at any moment.
//
// Site listener cadence: a SiteSample follows every site event (arrivals,
// demand-relevant tenant events, retirements) — the points where shares can
// actually move. With shards == 0 every engine event is a site event, so
// samples follow every processed event. Share values and the capacity
// invariant are identical at the shared points.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ensemble/arbiter.h"
#include "ensemble/arrival.h"
#include "ensemble/report.h"
#include "sim/config.h"
#include "sim/scaling_policy.h"
#include "workload/generators.h"
#include "workload/profiles.h"

namespace wire::ensemble {

/// Policy factory: mints a fresh policy for each tenant at its admission
/// (and for each dedicated-baseline replay at its retirement). The driver
/// always passes shard 0; the argument is kept for existing callers.
/// Policies it mints may share scratch state, because the driver never runs
/// two of them at once.
using ShardedPolicyFactory =
    std::function<std::unique_ptr<sim::ScalingPolicy>(std::uint32_t shard)>;

struct EnsembleOptions {
  ArbiterStrategy strategy = ArbiterStrategy::StaticFairShare;
  /// Shared site capacity partitioned by the arbiter (>= 1).
  std::uint32_t site_cap = 12;
  /// Per-job bootstrap pool at admission, clamped to the job's share.
  std::uint32_t initial_instances = 1;
  /// Hard guard against a stuck ensemble (site clock; finite, > 0).
  sim::SimTime max_sim_seconds = 90.0 * 24.0 * 3600.0;
  /// Also run every job alone on the full site (same workflow, policy kind,
  /// seeds) to compute the dedicated-site makespan that per-job slowdown is
  /// measured against. Doubles the simulation work; disable for quick runs
  /// (slowdown and dedicated makespan then report 0).
  bool dedicated_baseline = true;
  /// Driver loop mode: 1 = windowed (local events advance ahead of site
  /// events, rebalances touch only changed rows); 0 = the event-at-a-time
  /// reference (no local advance, every rebalance full). Values of 2 or more
  /// are rejected. Without a checkpoint channel the EnsembleReport is
  /// byte-identical for both values.
  std::uint32_t shards = 1;
  /// Feed each tenant's projected memory demand
  /// (JobEngine::requested_mem_mb) into demand-weighted arbitration via
  /// ArbiterConfig::instance_mem_mb taken from the site's MemoryConfig. Off
  /// by default: baselines stay byte-identical.
  bool memory_aware_demand = false;
  /// Per-tenant budget (charging units, finite, >= 0) every job of the
  /// stream runs under; 0 disables budget accounting entirely
  /// (byte-identical baselines). The driver does not enforce the budget
  /// itself — the tenant's own policies::BudgetPolicy does (mint one through
  /// exp::sharded_budget_policy_factory with BudgetOptions::budget_units
  /// equal to this) — but it seeds the demand signal: a tenant whose engine
  /// has not yet reported a remaining budget bids with the full amount, and
  /// the report's per-job budget / overrun counters are measured against it.
  double budget_units = 0.0;
  /// Cooperative checkpoint staggering on the shared checkpoint channel
  /// (only meaningful when the site's CheckpointConfig is enabled). Off:
  /// tenants with checkpoint pressure share the channel concurrently — each
  /// is installed its diluted bandwidth share. On: the arbiter serializes
  /// access into round-robin windows at full bandwidth
  /// (allocate_checkpoint_windows), one round per site control lag.
  bool stagger_checkpoints = false;
};

/// Site-level observation emitted at every site event (arrival,
/// demand-relevant tenant event, retirement) once shares are rebalanced —
/// every point where shares can move; with shards == 0 that is after every
/// processed event. Tests use it to assert the capacity invariant at every
/// control point.
struct SiteSample {
  sim::SimTime now = 0.0;
  std::uint32_t site_cap = 0;
  /// Sum of live instances across all tenants (<= site_cap, invariant).
  std::uint32_t live_total = 0;
  /// Per-tenant rows, one for every job that has arrived but not finished,
  /// in arrival order.
  std::vector<std::uint32_t> jobs;
  std::vector<std::uint32_t> live;
  std::vector<std::uint32_t> shares;
};

class EnsembleDriver {
 public:
  /// `profiles` is the workflow catalogue the arrival stream indexes into;
  /// `cloud` describes one site instance (its max_instances is ignored —
  /// EnsembleOptions::site_cap is the shared ceiling, and the per-tenant
  /// engines are capped by their arbiter shares instead). Policies are
  /// minted one per admitted tenant and one per dedicated-baseline replay.
  EnsembleDriver(std::vector<workload::WorkflowProfile> profiles,
                 ArrivalProcess arrivals,
                 ShardedPolicyFactory sharded_policy_factory,
                 const sim::CloudConfig& cloud,
                 const EnsembleOptions& options = {});
  ~EnsembleDriver();  // out of line: Tenant is private to the .cpp

  /// Observer invoked with every SiteSample (optional; see SiteSample for
  /// the cadence).
  void set_site_listener(std::function<void(const SiteSample&)> listener) {
    site_listener_ = std::move(listener);
  }

  /// Runs the whole stream to completion and reports. Deterministic in
  /// (profiles, arrivals, policy factory output, cloud, options): two runs
  /// with identical inputs produce byte-identical reports. Call once.
  EnsembleReport run();

 private:
  struct Tenant;

  /// Builds the waiting tenant's workflow, policy and engine, installs its
  /// first share and starts the engine.
  void admit(Tenant& tenant, std::uint32_t share, sim::SimTime now);
  /// Retires the tenant in open_[slot]: records its JobOutcome (running the
  /// dedicated replay), frees its engine, policy and workflow, and drops
  /// its slot everywhere.
  void retire(std::size_t slot, sim::SimTime now);
  /// Allocates and installs shares (and checkpoint grants) when a row
  /// changed, then emits the SiteSample. `full` re-reads and re-installs
  /// every row regardless (the shards == 0 semantics).
  void rebalance(sim::SimTime now, bool full);
  /// The arbiter's view of one tenant right now.
  TenantDemand demand_row(const Tenant& tenant) const;
  /// Re-reads open_[slot]'s row and event keys after its engine moved.
  void refresh(std::size_t slot);
  /// Appends an arrived job as a waiting tenant (no engine yet).
  void enqueue_arrival(const JobArrival& a);
  /// Steps every running tenant through its local events below the next
  /// demand-relevant site event (or the next arrival, if earlier).
  void advance_local(sim::SimTime arrival_time);
  void run_loop();
  EnsembleReport assemble_report();
  double dedicated_makespan(const Tenant& tenant);

  /// One per profile, in catalogue order.
  std::vector<workload::WorkflowTemplate> templates_;
  ArrivalProcess arrivals_;
  ShardedPolicyFactory policy_factory_;
  sim::CloudConfig cloud_;
  EnsembleOptions options_;
  std::function<void(const SiteSample&)> site_listener_;
  /// Every arrived tenant in arrival order; a waiting or retired one holds
  /// no engine.
  std::vector<std::unique_ptr<Tenant>> tenants_;
  /// The first arrival's policy name, recorded at its retirement.
  std::string tenant_policy_;
  /// Arrived, not yet retired tenants in arrival order (FIFO, the order the
  /// arbiter's tie-breaks use). Appended at arrival, erased at retirement.
  std::vector<Tenant*> open_;
  /// Parallel to open_: the last-read arbiter row, the installed share and
  /// checkpoint grant, the site time of the next event (a finished engine's
  /// completion time; +inf while waiting) and of the next demand-relevant
  /// event (+inf unless running).
  std::vector<TenantDemand> rows_;
  std::vector<std::uint32_t> shares_;
  std::vector<CheckpointGrant> grants_;
  std::vector<sim::SimTime> next_at_;
  std::vector<sim::SimTime> demand_at_;
  /// A row changed, or a tenant arrived or retired, since the last
  /// allocation.
  bool rows_changed_ = false;
  /// Sum of rows_[i].live_instances: live instances across the site.
  std::uint32_t live_total_ = 0;
  double busy_slot_seconds_ = 0.0;
  double allocated_instance_seconds_ = 0.0;
  bool ran_ = false;
};

}  // namespace wire::ensemble
