#include "ensemble/driver.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "sim/driver.h"
#include "sim/engine.h"
#include "util/check.h"

namespace wire::ensemble {

namespace {
constexpr sim::SimTime kNever = std::numeric_limits<sim::SimTime>::infinity();

/// The run options of a tenant's engine and of its dedicated replay alike.
sim::RunOptions run_options(const JobArrival& a,
                            const EnsembleOptions& options) {
  sim::RunOptions run;
  run.seed = a.run_seed;
  run.initial_instances = options.initial_instances;
  run.max_sim_seconds = options.max_sim_seconds;
  return run;
}

template <class T>
void erase_slot(std::vector<T>& v, std::size_t slot) {
  v.erase(v.begin() + static_cast<std::ptrdiff_t>(slot));
}
}  // namespace

struct EnsembleDriver::Tenant {
  enum class State { Waiting, Active, Done };

  JobArrival arrival;
  State state = State::Waiting;
  sim::SimTime admitted_at = -1.0;
  // Built at admission, freed at retirement. Declared so that destruction
  // runs engine, policy, workflow: the engine references both.
  std::optional<dag::Workflow> workflow;
  std::unique_ptr<sim::ScalingPolicy> policy;
  std::unique_ptr<sim::JobEngine> engine;
  /// Filled at retirement; all the report keeps of the run.
  JobOutcome outcome;

  explicit Tenant(const JobArrival& a) : arrival(a) {}

  /// Site-clock time of the tenant's next internal event.
  sim::SimTime next_event_site_time() const {
    return admitted_at + engine->next_event_time();
  }

  /// Site-clock time of the tenant's next demand-relevant event (+inf for a
  /// completed engine awaiting retirement).
  sim::SimTime next_demand_site_time() const {
    return admitted_at + engine->next_demand_event_time();
  }
};

EnsembleDriver::~EnsembleDriver() = default;

EnsembleDriver::EnsembleDriver(std::vector<workload::WorkflowProfile> profiles,
                               ArrivalProcess arrivals,
                               ShardedPolicyFactory sharded_policy_factory,
                               const sim::CloudConfig& cloud,
                               const EnsembleOptions& options)
    : arrivals_(std::move(arrivals)),
      policy_factory_(std::move(sharded_policy_factory)),
      cloud_(cloud),
      options_(options) {
  WIRE_REQUIRE(static_cast<bool>(policy_factory_), "need a policy factory");
  WIRE_REQUIRE(!profiles.empty(), "need at least one workflow profile");
  WIRE_REQUIRE(options_.site_cap >= 1, "site cap must be at least one");
  WIRE_REQUIRE(options_.initial_instances >= 1,
               "jobs bootstrap with at least one instance");
  WIRE_REQUIRE(std::isfinite(options_.max_sim_seconds) &&
                   options_.max_sim_seconds > 0.0,
               "max_sim_seconds must be finite and positive");
  WIRE_REQUIRE(std::isfinite(options_.budget_units) &&
                   options_.budget_units >= 0.0,
               "budget must be finite and non-negative");
  WIRE_REQUIRE(options_.shards <= 1,
               "shards is 0 (reference loop) or 1 (windowed engine)");
  // Engines are built only at admission; reject a config that would fail
  // them before the run starts.
  cloud_.validate();
  for (const JobArrival& a : arrivals_.jobs()) {
    WIRE_REQUIRE(a.profile_index < profiles.size(),
                 "arrival references an unknown profile");
  }
  // Each profile's graph is built once; an admission only draws its task
  // numbers.
  templates_.reserve(profiles.size());
  for (const workload::WorkflowProfile& p : profiles) {
    templates_.emplace_back(p);
  }
  // The arbiter share is the binding per-tenant ceiling; the per-tenant
  // engines must not additionally clip against a site-wide max_instances
  // they believe they own exclusively.
  cloud_.max_instances = 0;
}

void EnsembleDriver::admit(Tenant& tenant, std::uint32_t share,
                           sim::SimTime now) {
  const JobArrival& a = tenant.arrival;
  tenant.workflow.emplace(
      templates_[a.profile_index].instantiate(a.workflow_seed));
  tenant.policy = policy_factory_(0);
  tenant.engine = std::make_unique<sim::JobEngine>(
      *tenant.workflow, *tenant.policy, cloud_, run_options(a, options_));
  tenant.engine->set_instance_cap(share);
  tenant.state = Tenant::State::Active;
  tenant.admitted_at = now;
  tenant.engine->start();
}

void EnsembleDriver::retire(std::size_t slot, sim::SimTime now) {
  Tenant& tenant = *open_[slot];
  tenant.state = Tenant::State::Done;
  const sim::RunResult result = tenant.engine->result();
  if (&tenant == tenants_.front().get()) tenant_policy_ = result.policy_name;

  JobOutcome& j = tenant.outcome;
  j.job = tenant.arrival.job;
  j.workflow_name = tenant.workflow->name();
  j.arrival_seconds = tenant.arrival.arrival_seconds;
  j.admitted_seconds = tenant.admitted_at;
  j.completed_seconds = now;
  j.queue_wait_seconds = tenant.admitted_at - tenant.arrival.arrival_seconds;
  j.makespan_seconds = result.makespan;
  if (options_.dedicated_baseline) {
    // Replays run synchronously between engine steps, so no other policy is
    // mid-plan() and a shared PlanScratch stays safe.
    j.dedicated_makespan_seconds = dedicated_makespan(tenant);
    j.slowdown = (j.queue_wait_seconds + j.makespan_seconds) /
                 j.dedicated_makespan_seconds;
  }
  j.cost_units = result.cost_units;
  j.budget_units = options_.budget_units;
  if (j.budget_units > 0.0) {
    j.over_budget_units = std::max(0.0, j.cost_units - j.budget_units);
  }
  j.peak_instances = result.peak_instances;
  j.task_restarts = result.task_restarts;
  j.task_faults = result.task_faults;
  j.instance_crashes = result.instance_crashes;
  j.quarantined_tasks =
      static_cast<std::uint32_t>(result.quarantined_tasks.size());
  busy_slot_seconds_ += result.busy_slot_seconds;
  allocated_instance_seconds_ += result.ready_instance_seconds;

  tenant.engine.reset();
  tenant.policy.reset();
  tenant.workflow.reset();

  live_total_ -= rows_[slot].live_instances;
  erase_slot(open_, slot);
  erase_slot(rows_, slot);
  erase_slot(shares_, slot);
  erase_slot(grants_, slot);
  erase_slot(next_at_, slot);
  erase_slot(demand_at_, slot);
  rows_changed_ = true;
}

void EnsembleDriver::enqueue_arrival(const JobArrival& a) {
  tenants_.push_back(std::make_unique<Tenant>(a));
  open_.push_back(tenants_.back().get());
  rows_.emplace_back();
  // No share equals the sentinel, so the first rebalance records one.
  shares_.push_back(sim::kNoInstanceCap);
  grants_.emplace_back();
  next_at_.push_back(kNever);
  demand_at_.push_back(kNever);
  refresh(open_.size() - 1);
  rows_changed_ = true;
}

TenantDemand EnsembleDriver::demand_row(const Tenant& t) const {
  TenantDemand d;
  d.job = t.arrival.job;
  d.arrival_seconds = t.arrival.arrival_seconds;
  if (t.state == Tenant::State::Active) {
    d.live_instances = t.engine->live_instances();
    d.requested_pool = t.engine->requested_pool();
    d.requested_mem_mb =
        options_.memory_aware_demand ? t.engine->requested_mem_mb() : 0.0;
    d.checkpoint_mb =
        cloud_.checkpoint.enabled() ? t.engine->checkpoint_demand_mb() : 0.0;
    // Until the tenant's first control tick the engine still carries the
    // -1 "not reported" sentinel; a driver-level budget fills the gap so a
    // freshly admitted tenant bids with its full allowance instead of the
    // unbudgeted default weight.
    d.remaining_budget_units = t.engine->remaining_budget_units();
    if (d.remaining_budget_units < 0.0 && options_.budget_units > 0.0) {
      d.remaining_budget_units = options_.budget_units;
    }
  } else {
    d.live_instances = 0;
    d.requested_pool = options_.initial_instances;
    d.requested_mem_mb = 0.0;
    d.checkpoint_mb = 0.0;
    d.remaining_budget_units =
        options_.budget_units > 0.0 ? options_.budget_units : -1.0;
  }
  return d;
}

void EnsembleDriver::refresh(std::size_t slot) {
  const Tenant& t = *open_[slot];
  const TenantDemand row = demand_row(t);
  TenantDemand& cached = rows_[slot];
  if (row != cached) {
    live_total_ = live_total_ - cached.live_instances + row.live_instances;
    cached = row;
    rows_changed_ = true;
  }
  next_at_[slot] = kNever;
  demand_at_[slot] = kNever;
  if (t.state != Tenant::State::Active) return;
  if (t.engine->done()) {
    // Finished during a local advance; retired at its completion time.
    next_at_[slot] = t.admitted_at + t.engine->end_time();
  } else {
    next_at_[slot] = t.next_event_site_time();
    demand_at_[slot] = t.next_demand_site_time();
  }
}

void EnsembleDriver::rebalance(sim::SimTime now, bool full) {
  if (open_.empty()) return;
  if (full) {
    for (std::size_t i = 0; i < open_.size(); ++i) refresh(i);
    rows_changed_ = true;
  }

  // The allocation is a pure function of the rows (open_ is appended at
  // arrival and erased at retirement, so they stay FIFO), so when no row
  // moved since the last pass the installed shares and grants are already
  // its answer.
  if (rows_changed_) {
    rows_changed_ = false;
    ArbiterConfig config;
    config.site_cap = options_.site_cap;
    if (options_.memory_aware_demand) {
      config.instance_mem_mb = cloud_.memory.instance_mem_mb;
    }
    const std::vector<std::uint32_t> shares =
        allocate_shares(options_.strategy, config, rows_);

    std::vector<CheckpointGrant> ckpt_grants;
    if (cloud_.checkpoint.enabled()) {
      ArbiterConfig ckpt_config = config;
      ckpt_config.checkpoint_bandwidth_mb_per_s =
          cloud_.checkpoint.channel_bandwidth_mb_per_s;
      ckpt_config.stagger_checkpoints = options_.stagger_checkpoints;
      ckpt_config.stagger_period_seconds = cloud_.lag_seconds;
      ckpt_grants = allocate_checkpoint_windows(ckpt_config, rows_);
    }

    // Installs go only where a value moved: set_instance_cap and
    // set_checkpoint_window are plain stores and set_checkpoint_channel
    // ignores an unchanged bandwidth, so re-installing an equal value is a
    // no-op (the full pass still re-installs everything, as the reference
    // always did).
    for (std::size_t i = 0; i < open_.size(); ++i) {
      Tenant& t = *open_[i];
      bool admitted = false;
      if (full || shares[i] != shares_[i]) {
        shares_[i] = shares[i];
        if (t.state == Tenant::State::Active) {
          t.engine->set_instance_cap(shares[i]);
        } else if (shares[i] >= 1) {
          // A waiting tenant's share was 0 at every earlier pass (else it
          // would have been admitted then), so admissions only happen where
          // the share moved.
          admit(t, shares[i], now);
          admitted = true;
        }
      }
      bool installed = false;
      if (!ckpt_grants.empty() && t.state == Tenant::State::Active &&
          (full || admitted || ckpt_grants[i] != grants_[i])) {
        // Window offsets are site-anchored; the engine clock starts at
        // admission, so translate by -admitted_at.
        const CheckpointGrant& g = ckpt_grants[i];
        grants_[i] = g;
        t.engine->set_checkpoint_channel(g.bandwidth_mb_per_s,
                                         now - t.admitted_at);
        t.engine->set_checkpoint_window(
            g.window_offset_seconds - t.admitted_at, g.window_length_seconds,
            g.window_period_seconds);
        installed = true;
      }
      // Starting an engine, or a bandwidth change re-arming its checkpoint
      // guard, schedules events: re-key the tenant and re-read its row.
      if (admitted || installed) refresh(i);
    }
  }
  WIRE_CHECK(live_total_ <= options_.site_cap,
             "tenants exceed the shared site cap");

  if (site_listener_) {
    SiteSample sample;
    sample.now = now;
    sample.site_cap = options_.site_cap;
    sample.live_total = live_total_;
    sample.jobs.reserve(open_.size());
    sample.live.reserve(open_.size());
    for (const TenantDemand& row : rows_) {
      sample.jobs.push_back(row.job);
      sample.live.push_back(row.live_instances);
    }
    sample.shares = shares_;
    site_listener_(sample);
  }
}

double EnsembleDriver::dedicated_makespan(const Tenant& tenant) {
  // The counterfactual: the identical job (same DAG, same ground-truth
  // seed, same policy kind) alone on the full site.
  sim::CloudConfig dedicated = cloud_;
  dedicated.max_instances = options_.site_cap;
  const std::unique_ptr<sim::ScalingPolicy> policy = policy_factory_(0);
  return sim::simulate(*tenant.workflow, *policy, dedicated,
                       run_options(tenant.arrival, options_))
      .makespan;
}

void EnsembleDriver::advance_local(sim::SimTime arrival_time) {
  const sim::SimTime max = options_.max_sim_seconds;
  // Horizon: the earliest pending event that can change any tenant's demand
  // state or read its cap. Everything strictly below it is local to one
  // engine and commutes across tenants. Keys are cached per slot and +inf for
  // tenants that are not running.
  sim::SimTime horizon = arrival_time;
  for (const sim::SimTime when : demand_at_) {
    horizon = std::min(horizon, when);
  }

  // Every due tenant (a running engine with a local event below the horizon;
  // a finished engine awaiting retirement keeps its completion time as key)
  // runs its local events strictly below the horizon. Local handlers never
  // touch caps or demand, so this is byte-equivalent to processing the same
  // events interleaved in global time order.
  for (std::size_t i = 0; i < open_.size(); ++i) {
    // A waiting tenant has no engine; its key is +inf.
    if (next_at_[i] >= horizon || next_at_[i] > max) continue;
    const Tenant& t = *open_[i];
    sim::JobEngine& engine = *t.engine;
    if (engine.done()) continue;
    WIRE_CHECK(t.next_event_site_time() == next_at_[i],
               "stale cached event key");
    while (!engine.done()) {
      const sim::SimTime when = t.next_event_site_time();
      if (when >= horizon || when > max) break;
      engine.step();
    }
    WIRE_CHECK(engine.done() || t.next_demand_site_time() >= horizon,
               "local advance crossed a demand-relevant event");
    refresh(i);
  }
}

void EnsembleDriver::run_loop() {
  std::size_t next_arrival = 0;
  const std::vector<JobArrival>& stream = arrivals_.jobs();
  // shards == 0 is the event-at-a-time reference: no local advance, so every
  // engine event is a site event, and every rebalance re-reads and
  // re-installs every row. It is the oracle for the cached keys and rows.
  const bool reference = options_.shards == 0;

  for (;;) {
    const sim::SimTime arrival_time = next_arrival < stream.size()
                                          ? stream[next_arrival].arrival_seconds
                                          : kNever;
    if (!reference) advance_local(arrival_time);

    // Site event: exactly one site action — the earliest among the next
    // arrival, pending retirements (engines that completed during the local
    // advance, at their completion times), and tracked tenant events (all
    // >= horizon now). Ties: arrivals first, then lowest tenant index.
    std::size_t next_slot = open_.size();
    sim::SimTime tenant_time = kNever;
    for (std::size_t i = 0; i < open_.size(); ++i) {
      if (next_at_[i] < tenant_time) {
        tenant_time = next_at_[i];
        next_slot = i;
      }
    }
    if (arrival_time == kNever && next_slot == open_.size()) break;

    const sim::SimTime now = std::min(arrival_time, tenant_time);
    if (now > options_.max_sim_seconds) {
      throw std::runtime_error(
          "ensemble exceeded max_sim_seconds — site appears stuck");
    }

    if (arrival_time <= tenant_time) {
      enqueue_arrival(stream[next_arrival++]);
    } else {
      const Tenant& t = *open_[next_slot];
      sim::JobEngine& engine = *t.engine;
      if (!engine.done()) {
        WIRE_CHECK(t.next_event_site_time() == tenant_time,
                   "stale cached event key");
        engine.step();
      }
      if (engine.done()) {
        retire(next_slot, now);
      } else {
        refresh(next_slot);
      }
    }
    rebalance(now, /*full=*/reference);
  }
}

EnsembleReport EnsembleDriver::assemble_report() {
  EnsembleReport report;
  report.tenant_policy = tenants_.empty() ? std::string("none") : tenant_policy_;
  report.arbiter_strategy = strategy_name(options_.strategy);
  report.site_cap = options_.site_cap;
  report.slots_per_instance = cloud_.slots_per_instance;
  report.jobs.reserve(tenants_.size());
  for (const std::unique_ptr<Tenant>& t : tenants_) {
    WIRE_CHECK(t->state == Tenant::State::Done, "unfinished tenant at exit");
    report.jobs.push_back(std::move(t->outcome));
  }
  tenants_.clear();
  report.finalize(busy_slot_seconds_, allocated_instance_seconds_);
  return report;
}

EnsembleReport EnsembleDriver::run() {
  WIRE_REQUIRE(!ran_, "ensemble already ran");
  ran_ = true;
  run_loop();
  return assemble_report();
}

}  // namespace wire::ensemble
