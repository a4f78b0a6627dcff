// Tests of the multi-tenant ensemble subsystem: arrival streams, arbiter
// share accounting, the shared-site capacity invariant, tenant snapshot
// isolation, job retirement, and report determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ensemble/arbiter.h"
#include "ensemble/arrival.h"
#include "ensemble/driver.h"
#include "ensemble/report.h"
#include "exp/settings.h"
#include "policies/baselines.h"
#include "sim/driver.h"
#include "sim/engine.h"
#include "util/check.h"
#include "workload/generators.h"
#include "workload/profiles.h"

namespace wire::ensemble {
namespace {

/// Deterministic §IV-B-like site without stochastic variability, so the
/// driver tests stay fast and exactly reproducible.
sim::CloudConfig quiet_site(std::uint32_t max_instances = 6) {
  sim::CloudConfig config;
  config.lag_seconds = 180.0;
  config.charging_unit_seconds = 900.0;
  config.slots_per_instance = 4;
  config.max_instances = max_instances;
  config.variability.instance_speed_sigma = 0.0;
  config.variability.interference_sigma = 0.0;
  config.variability.transfer_noise_sigma = 0.0;
  config.variability.transfer_latency_seconds = 0.0;
  config.variability.bandwidth_mb_per_s = 1e12;
  return config;
}

std::vector<workload::WorkflowProfile> small_profiles() {
  return {workload::tpch6_profile(workload::Scale::Small),
          workload::pagerank_profile(workload::Scale::Small)};
}

// ---------------------------------------------------------------------------
// ArrivalProcess

TEST(Arrivals, PoissonIsDeterministicInSeed) {
  PoissonArrivalConfig config;
  config.mean_interarrival_seconds = 300.0;
  config.job_count = 20;
  config.seed = 7;
  const ArrivalProcess a = ArrivalProcess::poisson(config, 3);
  const ArrivalProcess b = ArrivalProcess::poisson(config, 3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.jobs()[i].job, b.jobs()[i].job);
    EXPECT_DOUBLE_EQ(a.jobs()[i].arrival_seconds, b.jobs()[i].arrival_seconds);
    EXPECT_EQ(a.jobs()[i].profile_index, b.jobs()[i].profile_index);
    EXPECT_EQ(a.jobs()[i].workflow_seed, b.jobs()[i].workflow_seed);
    EXPECT_EQ(a.jobs()[i].run_seed, b.jobs()[i].run_seed);
  }
  config.seed = 8;
  const ArrivalProcess c = ArrivalProcess::poisson(config, 3);
  EXPECT_NE(a.jobs().front().arrival_seconds,
            c.jobs().front().arrival_seconds);
}

TEST(Arrivals, PoissonStreamIsWellFormed) {
  PoissonArrivalConfig config;
  config.mean_interarrival_seconds = 120.0;
  config.job_count = 50;
  config.seed = 11;
  const ArrivalProcess stream = ArrivalProcess::poisson(config, 4);
  ASSERT_EQ(stream.size(), 50u);
  std::set<std::uint64_t> seeds;
  double prev = 0.0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const JobArrival& a = stream.jobs()[i];
    EXPECT_EQ(a.job, static_cast<std::uint32_t>(i));  // dense ids
    EXPECT_GE(a.arrival_seconds, prev);               // sorted
    EXPECT_LT(a.profile_index, 4u);
    seeds.insert(a.workflow_seed);
    seeds.insert(a.run_seed);
    prev = a.arrival_seconds;
  }
  // Every per-job seed is distinct (workflow and run seeds never collide).
  EXPECT_EQ(seeds.size(), 2 * stream.size());
}

TEST(Arrivals, FixedTraceIsNormalized) {
  std::vector<JobArrival> trace(3);
  trace[0].arrival_seconds = 500.0;
  trace[0].profile_index = 1;
  trace[1].arrival_seconds = 100.0;
  trace[1].profile_index = 0;
  trace[2].arrival_seconds = 300.0;
  trace[2].profile_index = 2;
  const ArrivalProcess stream = ArrivalProcess::fixed_trace(trace, 5);
  ASSERT_EQ(stream.size(), 3u);
  EXPECT_DOUBLE_EQ(stream.jobs()[0].arrival_seconds, 100.0);
  EXPECT_DOUBLE_EQ(stream.jobs()[1].arrival_seconds, 300.0);
  EXPECT_DOUBLE_EQ(stream.jobs()[2].arrival_seconds, 500.0);
  EXPECT_EQ(stream.jobs()[0].profile_index, 0u);  // profiles follow the sort
  EXPECT_EQ(stream.jobs()[1].profile_index, 2u);
  EXPECT_EQ(stream.jobs()[2].profile_index, 1u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(stream.jobs()[i].job, static_cast<std::uint32_t>(i));
  }
}

// ---------------------------------------------------------------------------
// SiteArbiter

TenantDemand demand(std::uint32_t job, double arrival, std::uint32_t live,
                    std::uint32_t requested) {
  TenantDemand d;
  d.job = job;
  d.arrival_seconds = arrival;
  d.live_instances = live;
  d.requested_pool = requested;
  return d;
}

TEST(Arbiter, FifoExclusiveBacksTheOldestJob) {
  // B arrived first: it gets its floor plus all spare; A stays at its floor.
  const std::vector<TenantDemand> tenants = {demand(1, 5.0, 2, 8),
                                             demand(0, 1.0, 3, 4)};
  const std::vector<std::uint32_t> shares =
      allocate_shares(ArbiterStrategy::FifoExclusive,
                      ArbiterConfig{10}, tenants);
  EXPECT_EQ(shares[0], 2u);
  EXPECT_EQ(shares[1], 8u);
}

TEST(Arbiter, FifoTiesBreakOnJobId) {
  const std::vector<TenantDemand> tenants = {demand(2, 1.0, 0, 4),
                                             demand(1, 1.0, 0, 4)};
  const std::vector<std::uint32_t> shares =
      allocate_shares(ArbiterStrategy::FifoExclusive,
                      ArbiterConfig{6}, tenants);
  EXPECT_EQ(shares[0], 0u);  // job 2 waits
  EXPECT_EQ(shares[1], 6u);  // job 1 wins the tie
}

TEST(Arbiter, FairShareSplitsEntitlementsWithRemainderToEarliest) {
  // cap 10, three idle tenants: entitlements 4/3/3, remainder to the oldest.
  const std::vector<TenantDemand> tenants = {
      demand(0, 1.0, 0, 10), demand(1, 2.0, 0, 10), demand(2, 3.0, 0, 10)};
  const std::vector<std::uint32_t> shares =
      allocate_shares(ArbiterStrategy::StaticFairShare,
                      ArbiterConfig{10}, tenants);
  EXPECT_EQ(shares[0], 4u);
  EXPECT_EQ(shares[1], 3u);
  EXPECT_EQ(shares[2], 3u);
}

TEST(Arbiter, FairShareKeepsOversizedFloors) {
  // A tenant already above its entitlement keeps its floor (no preemption);
  // what remains flows to the others.
  const std::vector<TenantDemand> tenants = {demand(0, 1.0, 7, 7),
                                             demand(1, 2.0, 1, 6)};
  const std::vector<std::uint32_t> shares =
      allocate_shares(ArbiterStrategy::StaticFairShare,
                      ArbiterConfig{8}, tenants);
  EXPECT_EQ(shares[0], 7u);
  EXPECT_EQ(shares[1], 1u);
  EXPECT_LE(shares[0] + shares[1], 8u);
}

TEST(Arbiter, DemandWeightedGrantsFittingDemandExactly) {
  // Total unmet demand (6 + 3) fits in the spare 10: everyone gets what they
  // asked for, the undemanded instance stays unallocated.
  const std::vector<TenantDemand> tenants = {demand(0, 1.0, 0, 6),
                                             demand(1, 2.0, 0, 3)};
  const std::vector<std::uint32_t> shares =
      allocate_shares(ArbiterStrategy::DemandWeighted,
                      ArbiterConfig{10}, tenants);
  EXPECT_EQ(shares[0], 6u);
  EXPECT_EQ(shares[1], 3u);
}

TEST(Arbiter, DemandWeightedSplitsProportionallyWhenOversubscribed) {
  // Both want the full site: the spare splits evenly.
  const std::vector<TenantDemand> tenants = {demand(0, 1.0, 0, 20),
                                             demand(1, 2.0, 0, 20)};
  const std::vector<std::uint32_t> shares =
      allocate_shares(ArbiterStrategy::DemandWeighted,
                      ArbiterConfig{10}, tenants);
  EXPECT_EQ(shares[0], 5u);
  EXPECT_EQ(shares[1], 5u);
}

TEST(Arbiter, ContractHoldsForEveryStrategy) {
  // Floors respected and sum <= cap under a mixed demand profile.
  const std::vector<TenantDemand> tenants = {
      demand(0, 1.0, 4, 9), demand(1, 2.0, 2, 2), demand(2, 2.0, 0, 5)};
  for (ArbiterStrategy strategy : all_strategies()) {
    const std::vector<std::uint32_t> shares =
        allocate_shares(strategy, ArbiterConfig{8}, tenants);
    std::uint32_t total = 0;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      EXPECT_GE(shares[i], tenants[i].live_instances)
          << strategy_name(strategy) << " preempted tenant " << i;
      total += shares[i];
    }
    EXPECT_LE(total, 8u) << strategy_name(strategy) << " over-allocated";
  }
}

TEST(Arbiter, RejectsImpossibleInputs) {
  const std::vector<TenantDemand> over = {demand(0, 1.0, 4, 4),
                                          demand(1, 2.0, 3, 3)};
  EXPECT_THROW(allocate_shares(ArbiterStrategy::StaticFairShare,
                               ArbiterConfig{6}, over),
               util::ContractViolation);
  EXPECT_THROW(
      allocate_shares(ArbiterStrategy::StaticFairShare, ArbiterConfig{0}, {}),
      util::ContractViolation);
  EXPECT_TRUE(
      allocate_shares(ArbiterStrategy::DemandWeighted, ArbiterConfig{4}, {})
          .empty());
}

// ---------------------------------------------------------------------------
// JobEngine external cap

TEST(JobEngineCap, ExternalCapBindsAndDemandStaysHonest) {
  // A wide stage under pure-reactive wants ~12 instances; an external cap of
  // 2 must clip the pool while the demand signal keeps reporting the real
  // want (that asymmetry is what demand-weighted arbitration feeds on).
  const dag::Workflow wf = workload::linear_workflow(1, 48, 400.0);
  policies::PureReactivePolicy policy;
  sim::CloudConfig config = quiet_site(0);  // no site-side limit
  sim::RunOptions options;
  options.initial_instances = 1;
  sim::JobEngine engine(wf, policy, config, options);
  engine.set_instance_cap(2);
  engine.start();
  std::uint32_t demand_seen = 0;
  while (!engine.done()) {
    engine.step();
    EXPECT_LE(engine.live_instances(), 2u);
    demand_seen = std::max(demand_seen, engine.requested_pool());
  }
  const sim::RunResult result = engine.result();
  EXPECT_LE(result.peak_instances, 2u);
  EXPECT_GT(demand_seen, 2u);
  for (const sim::TaskRuntime& rec : result.task_records) {
    EXPECT_EQ(rec.phase, sim::TaskPhase::Completed);
  }
}

TEST(JobEngineCap, ZeroCapBlocksAllGrowth) {
  // A share of 0 parks the tenant at its floor: no new instances, ever.
  // (kNoInstanceCap, not 0, is the "uncapped" sentinel.)
  const dag::Workflow wf = workload::linear_workflow(1, 16, 200.0);
  policies::PureReactivePolicy policy;
  sim::RunOptions options;
  options.initial_instances = 1;
  sim::JobEngine engine(wf, policy, quiet_site(0), options);
  engine.start();
  engine.set_instance_cap(0);
  while (!engine.done()) {
    engine.step();
    EXPECT_LE(engine.live_instances(), 1u);
  }
  EXPECT_LE(engine.result().peak_instances, 1u);
}

// ---------------------------------------------------------------------------
// EnsembleDriver

ArrivalProcess burst_stream(std::uint32_t jobs, double spacing_seconds) {
  std::vector<JobArrival> trace(jobs);
  for (std::uint32_t i = 0; i < jobs; ++i) {
    trace[i].arrival_seconds = spacing_seconds * i;
    trace[i].profile_index = i % 2;
  }
  return ArrivalProcess::fixed_trace(std::move(trace), 13);
}

TEST(EnsembleDriver, ReportsAreByteReproducible) {
  const sim::CloudConfig site = quiet_site();
  EnsembleOptions options;
  options.strategy = ArbiterStrategy::DemandWeighted;
  options.site_cap = 6;
  const ShardedPolicyFactory factory =
      exp::sharded_policy_factory(exp::PolicyKind::ReactiveConserving);

  EnsembleDriver first(small_profiles(), burst_stream(5, 120.0), factory,
                       site, options);
  EnsembleDriver second(small_profiles(), burst_stream(5, 120.0), factory,
                        site, options);
  const EnsembleReport a = first.run();
  const EnsembleReport b = second.run();
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.render(), b.render());
}

TEST(EnsembleDriver, CapacityInvariantHoldsAtEveryEvent) {
  // A tight burst (5 jobs, 1-minute spacing) on a 4-instance site keeps the
  // arbiter under pressure; the invariant must hold after every event under
  // every strategy.
  for (ArbiterStrategy strategy : all_strategies()) {
    EnsembleOptions options;
    options.strategy = strategy;
    options.site_cap = 4;
    EnsembleDriver driver(
        small_profiles(), burst_stream(5, 60.0),
        exp::sharded_policy_factory(exp::PolicyKind::PureReactive),
        quiet_site(), options);
    std::size_t samples = 0;
    driver.set_site_listener([&](const SiteSample& sample) {
      ++samples;
      ASSERT_LE(sample.live_total, sample.site_cap);
      std::uint32_t share_total = 0;
      for (std::size_t i = 0; i < sample.jobs.size(); ++i) {
        ASSERT_GE(sample.shares[i], sample.live[i])
            << strategy_name(strategy) << " preempted job "
            << sample.jobs[i];
        share_total += sample.shares[i];
      }
      ASSERT_LE(share_total, sample.site_cap);
    });
    const EnsembleReport report = driver.run();
    EXPECT_GT(samples, report.jobs.size());  // many events per job
    EXPECT_EQ(report.jobs.size(), 5u);
  }
}

TEST(EnsembleDriver, FifoAdmitsOneJobAtATime) {
  EnsembleOptions options;
  options.strategy = ArbiterStrategy::FifoExclusive;
  options.site_cap = 4;
  options.dedicated_baseline = false;
  EnsembleDriver driver(
      small_profiles(), burst_stream(4, 30.0),
      exp::sharded_policy_factory(exp::PolicyKind::PureReactive), quiet_site(),
      options);
  driver.set_site_listener([](const SiteSample& sample) {
    std::size_t running = 0;
    for (std::uint32_t live : sample.live) running += live > 0 ? 1 : 0;
    ASSERT_LE(running, 1u) << "fifo-exclusive ran two jobs concurrently";
  });
  const EnsembleReport report = driver.run();
  // Later arrivals queue behind the head: at least one job waited.
  double max_wait = 0.0;
  for (const JobOutcome& j : report.jobs) {
    max_wait = std::max(max_wait, j.queue_wait_seconds);
    EXPECT_GE(j.queue_wait_seconds, 0.0);
  }
  EXPECT_GT(max_wait, 0.0);
}

TEST(EnsembleDriver, JobsRetireWithConsistentTimestamps) {
  EnsembleOptions options;
  options.strategy = ArbiterStrategy::StaticFairShare;
  options.site_cap = 6;
  EnsembleDriver driver(
      small_profiles(), burst_stream(4, 300.0),
      exp::sharded_policy_factory(exp::PolicyKind::ReactiveConserving),
      quiet_site(), options);
  const EnsembleReport report = driver.run();
  ASSERT_EQ(report.jobs.size(), 4u);
  for (const JobOutcome& j : report.jobs) {
    EXPECT_GE(j.admitted_seconds, j.arrival_seconds);
    EXPECT_GT(j.completed_seconds, j.admitted_seconds);
    EXPECT_DOUBLE_EQ(j.queue_wait_seconds,
                     j.admitted_seconds - j.arrival_seconds);
    EXPECT_DOUBLE_EQ(j.makespan_seconds,
                     j.completed_seconds - j.admitted_seconds);
    EXPECT_GT(j.dedicated_makespan_seconds, 0.0);
    EXPECT_GE(j.slowdown, 1.0 - 1e-9);  // sharing never beats a dedicated site
    EXPECT_GT(j.cost_units, 0.0);
  }
  EXPECT_GE(report.horizon_seconds,
            report.jobs.back().completed_seconds - 1e-9);
  EXPECT_GT(report.throughput_jobs_per_hour, 0.0);
  EXPECT_GT(report.site_utilization, 0.0);
  EXPECT_LE(report.site_utilization, 1.0 + 1e-9);
  EXPECT_GE(report.max_slowdown, report.mean_slowdown);
}

/// Delegates to reactive-conserving while cross-checking everything the
/// snapshot exposes against the tenant's own workflow: any leakage of another
/// tenant's tasks or instances would break the recorded sizes/ids.
class IsolationProbePolicy : public sim::ScalingPolicy {
 public:
  IsolationProbePolicy(std::uint32_t site_cap,
                       std::vector<std::string>* violations)
      : site_cap_(site_cap), violations_(violations) {}

  std::string name() const override { return inner_.name(); }

  void on_run_start(const dag::Workflow& workflow,
                    const sim::CloudConfig& config) override {
    task_count_ = workflow.task_count();
    inner_.on_run_start(workflow, config);
  }

  sim::PoolCommand plan(const sim::MonitorSnapshot& snapshot) override {
    if (snapshot.tasks.size() != task_count_) {
      violations_->push_back("snapshot task vector is not this job's DAG");
    }
    if (snapshot.pool_cap == sim::kNoInstanceCap) {
      violations_->push_back("pool_cap is uncapped under an arbiter");
    } else if (snapshot.pool_cap == 0 || snapshot.pool_cap > site_cap_) {
      // An admitted tenant's share is floored at 1 (and at its live count),
      // so a genuine zero share must never reach a policy in these runs.
      violations_->push_back("pool_cap outside (0, site_cap]");
    }
    if (snapshot.instances.size() > snapshot.pool_cap) {
      violations_->push_back("snapshot shows more instances than the share");
    }
    for (const sim::InstanceObservation& inst : snapshot.instances) {
      for (dag::TaskId t : inst.running_tasks) {
        if (t >= task_count_) {
          violations_->push_back("foreign task id on a tenant instance");
        }
      }
    }
    for (dag::TaskId t : snapshot.ready_queue) {
      if (t >= task_count_) {
        violations_->push_back("foreign task id in the ready queue");
      }
    }
    return inner_.plan(snapshot);
  }

 private:
  std::uint32_t site_cap_;
  std::vector<std::string>* violations_;
  std::size_t task_count_ = 0;
  policies::ReactiveConservingPolicy inner_;
};

TEST(EnsembleDriver, TenantSnapshotsAreIsolated) {
  // Two profiles with different task counts run concurrently; every
  // snapshot any tenant's policy sees must describe only that tenant.
  EnsembleOptions options;
  options.strategy = ArbiterStrategy::StaticFairShare;
  options.site_cap = 6;
  options.dedicated_baseline = false;
  std::vector<std::string> violations;
  EnsembleDriver driver(
      small_profiles(), burst_stream(4, 60.0),
      [&](std::uint32_t) {
        return std::make_unique<IsolationProbePolicy>(6, &violations);
      },
      quiet_site(), options);
  const EnsembleReport report = driver.run();
  EXPECT_EQ(report.jobs.size(), 4u);
  EXPECT_TRUE(violations.empty())
      << violations.size() << " violations, first: " << violations.front();
}

/// How many policies of one counting factory are alive, and the most that
/// ever were at once.
struct PolicyCensus {
  std::size_t live = 0;
  std::size_t peak = 0;
};

/// Forwards every call to the wrapped policy; counts itself in a census for
/// as long as it lives.
class CountedPolicy : public sim::ScalingPolicy {
 public:
  CountedPolicy(std::unique_ptr<sim::ScalingPolicy> inner, PolicyCensus* census)
      : inner_(std::move(inner)), census_(census) {
    census_->peak = std::max(census_->peak, ++census_->live);
  }
  ~CountedPolicy() override { --census_->live; }

  std::string name() const override { return inner_->name(); }
  void on_run_start(const dag::Workflow& workflow,
                    const sim::CloudConfig& config) override {
    inner_->on_run_start(workflow, config);
  }
  sim::PoolCommand plan(const sim::MonitorSnapshot& snapshot) override {
    return inner_->plan(snapshot);
  }

 private:
  std::unique_ptr<sim::ScalingPolicy> inner_;
  PolicyCensus* census_;
};

ShardedPolicyFactory counted(ShardedPolicyFactory inner, PolicyCensus* census) {
  return [inner = std::move(inner), census](std::uint32_t shard) {
    return std::make_unique<CountedPolicy>(inner(shard), census);
  };
}

TEST(EnsembleDriver, OnlyAdmittedTenantsHoldAPolicy) {
  // 96 WIRE tenants land 50 ms apart on an 8-instance site: the whole stream
  // is queued long before the first job finishes. A waiting tenant holds no
  // policy and a retired one frees its own, so the live policies follow the
  // tenants holding a share of the 8 instances, plus a retirement-time
  // replay's — not the 96 arrivals.
  constexpr std::uint32_t kSiteCap = 8;
  for (const bool dedicated : {false, true}) {
    std::vector<EnsembleReport> reports;
    for (const std::uint32_t shards : {0u, 1u}) {
      EnsembleOptions options;
      options.strategy = ArbiterStrategy::DemandWeighted;
      options.site_cap = kSiteCap;
      options.dedicated_baseline = dedicated;
      options.shards = shards;
      PolicyCensus census;
      EnsembleDriver driver(
          small_profiles(), burst_stream(96, 0.05),
          counted(exp::sharded_policy_factory(exp::PolicyKind::Wire), &census),
          quiet_site(), options);
      reports.push_back(driver.run());
      EXPECT_EQ(reports.back().jobs.size(), 96u);
      EXPECT_GE(census.peak, 2u) << "tenants never overlapped";
      EXPECT_LE(census.peak, kSiteCap + 1)
          << "shards=" << shards << " dedicated=" << dedicated;
      EXPECT_EQ(census.live, 0u) << "a policy outlived run()";
    }
    EXPECT_TRUE(reports[0] == reports[1]);
    EXPECT_EQ(reports[0].render(), reports[1].render());
  }
}

TEST(EnsembleDriver, RetirementReplayMatchesAStandaloneRun) {
  // WIRE tenants on one shared Plan arena under contention: each job's
  // dedicated replay runs at its retirement, while other tenants are mid-run,
  // and must still reproduce the job alone on the full site with a fresh
  // policy.
  EnsembleOptions options;
  options.strategy = ArbiterStrategy::DemandWeighted;
  options.site_cap = 4;
  options.dedicated_baseline = true;
  const ArrivalProcess stream = burst_stream(6, 60.0);
  const std::vector<workload::WorkflowProfile> profiles = small_profiles();
  EnsembleDriver driver(profiles, stream,
                        exp::sharded_policy_factory(exp::PolicyKind::Wire),
                        quiet_site(), options);
  const EnsembleReport report = driver.run();
  ASSERT_EQ(report.jobs.size(), stream.size());

  const sim::CloudConfig dedicated = quiet_site(options.site_cap);
  for (std::size_t k = 0; k < stream.size(); ++k) {
    const JobArrival& a = stream.jobs()[k];
    const dag::Workflow workflow =
        workload::make_workflow(profiles[a.profile_index], a.workflow_seed);
    const std::unique_ptr<sim::ScalingPolicy> policy =
        exp::make_policy(exp::PolicyKind::Wire);
    sim::RunOptions run_options;
    run_options.seed = a.run_seed;
    run_options.initial_instances = options.initial_instances;
    const sim::RunResult alone =
        sim::simulate(workflow, *policy, dedicated, run_options);
    EXPECT_EQ(report.jobs[k].dedicated_makespan_seconds, alone.makespan)
        << "job " << a.job;
  }
}

TEST(EnsembleDriver, RejectsMalformedSetups) {
  const sim::CloudConfig site = quiet_site();
  const ShardedPolicyFactory factory =
      exp::sharded_policy_factory(exp::PolicyKind::PureReactive);
  EXPECT_THROW(EnsembleDriver({}, burst_stream(2, 60.0), factory, site),
               util::ContractViolation);
  std::vector<JobArrival> bad(1);
  bad[0].profile_index = 99;
  EXPECT_THROW(EnsembleDriver(small_profiles(),
                              ArrivalProcess::fixed_trace(bad), factory, site),
               util::ContractViolation);
  EnsembleOptions zero_cap;
  zero_cap.site_cap = 0;
  EXPECT_THROW(EnsembleDriver(small_profiles(), burst_stream(2, 60.0), factory,
                              site, zero_cap),
               util::ContractViolation);
  // A NaN budget would land in every JobOutcome, a NaN horizon disables the
  // stuck-site guard, and only the reference mode (0) and the windowed
  // engine (1) exist.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EnsembleOptions nan_budget;
  nan_budget.budget_units = nan;
  EnsembleOptions negative_budget;
  negative_budget.budget_units = -1.0;
  EnsembleOptions nan_horizon;
  nan_horizon.max_sim_seconds = nan;
  EnsembleOptions two_shards;
  two_shards.shards = 2;
  for (const EnsembleOptions& bad :
       {nan_budget, negative_budget, nan_horizon, two_shards}) {
    EXPECT_THROW(EnsembleDriver(small_profiles(), burst_stream(2, 60.0),
                                factory, site, bad),
                 util::ContractViolation);
  }
  // Tenant engines are built only at admission, so the driver itself must
  // refuse a checkpoint config that can never make progress: a zero or NaN
  // interval floor, a NaN hazard prior, a zero Static interval.
  sim::CloudConfig ckpt_site = site;
  ckpt_site.checkpoint.channel_bandwidth_mb_per_s = 200.0;
  std::vector<sim::CloudConfig> bad_sites(4, ckpt_site);
  bad_sites[0].checkpoint.min_interval_seconds = 0.0;
  bad_sites[1].checkpoint.min_interval_seconds = nan;
  bad_sites[2].checkpoint.hazard_prior_per_hour = nan;
  bad_sites[3].checkpoint.interval_policy =
      sim::CheckpointConfig::IntervalPolicy::Static;
  bad_sites[3].checkpoint.static_interval_seconds = 0.0;
  for (const sim::CloudConfig& bad : bad_sites) {
    EXPECT_THROW(EnsembleDriver(small_profiles(), burst_stream(2, 60.0),
                                factory, bad),
                 util::ContractViolation);
  }
}

}  // namespace
}  // namespace wire::ensemble
