// Differential suite for the windowed ensemble engine: its EnsembleReport
// must be byte-identical to the event-at-a-time reference mode's
// (shards == 0) under fault chaos, memory-aware arbitration, bandit
// predictor selection, budgets and hundreds of live tenants. With a
// checkpoint channel the windowed engine is checked against a replay of
// itself, and the reference mode against goldens recorded from the separate
// loop it replaced.
//
// Randomized coverage announces its seed via SCOPED_TRACE; WIRE_FUZZ_SEED
// adds one environment-chosen chaos seed (the CI faults-fuzz job sets it to
// a time-derived value and echoes it into the log).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/controller.h"
#include "ensemble/arbiter.h"
#include "ensemble/arrival.h"
#include "ensemble/driver.h"
#include "ensemble/report.h"
#include "exp/settings.h"
#include "policies/budget.h"
#include "sim/config.h"
#include "sim/engine.h"
#include "workload/generators.h"
#include "workload/profiles.h"

namespace wire::ensemble {
namespace {

sim::CloudConfig quiet_site() {
  sim::CloudConfig config;
  config.lag_seconds = 180.0;
  config.charging_unit_seconds = 900.0;
  config.slots_per_instance = 4;
  config.max_instances = 6;
  config.variability.instance_speed_sigma = 0.0;
  config.variability.interference_sigma = 0.0;
  config.variability.transfer_noise_sigma = 0.0;
  config.variability.transfer_latency_seconds = 0.0;
  config.variability.bandwidth_mb_per_s = 1e12;
  return config;
}

/// quiet_site plus a hostile fault model: crashes, provisioning failures,
/// stragglers, transient task failures and monitor dropouts all active, so
/// every tracked-event kind (including fault-mode InstanceReady) exercises
/// the windowed horizon.
sim::CloudConfig crashy_site() {
  sim::CloudConfig config = quiet_site();
  config.faults.crash_rate_per_hour = 0.6;
  config.faults.crash_notice_seconds = 120.0;
  config.faults.provision_failure_prob = 0.1;
  config.faults.straggler_prob = 0.15;
  config.faults.task_failure_prob = 0.05;
  config.faults.monitor_dropout_prob = 0.1;
  return config;
}

std::vector<workload::WorkflowProfile> small_profiles() {
  return {workload::tpch6_profile(workload::Scale::Small),
          workload::pagerank_profile(workload::Scale::Small)};
}

ArrivalProcess burst_stream(std::uint32_t jobs, double spacing_seconds,
                            std::uint64_t seed = 13) {
  std::vector<JobArrival> trace(jobs);
  for (std::uint32_t i = 0; i < jobs; ++i) {
    trace[i].arrival_seconds = spacing_seconds * i;
    trace[i].profile_index = i % 2;
  }
  return ArrivalProcess::fixed_trace(std::move(trace), seed);
}

/// One full ensemble run on the given driver loop (0 = reference, 1 =
/// windowed); everything else is held fixed so reports are comparable.
EnsembleReport run_report(const sim::CloudConfig& site,
                          EnsembleOptions options, std::uint32_t shards,
                          exp::PolicyKind kind, std::uint32_t jobs,
                          std::uint64_t stream_seed,
                          const core::WireOptions& wire_options = {}) {
  options.shards = shards;
  EnsembleDriver driver(small_profiles(), burst_stream(jobs, 90.0, stream_seed),
                        exp::sharded_policy_factory(kind, wire_options), site,
                        options);
  return driver.run();
}

// ---------------------------------------------------------------------------
// Differential: windowed vs the event-at-a-time reference

TEST(WindowedDriver, MatchesSequentialReference) {
  // shards == 0 is the event-at-a-time reference mode; the windowed engine
  // must reproduce its report byte-for-byte (operator== plus the rendered
  // fixed-width table).
  const sim::CloudConfig site = quiet_site();
  for (ArbiterStrategy strategy :
       {ArbiterStrategy::DemandWeighted, ArbiterStrategy::StaticFairShare}) {
    SCOPED_TRACE("strategy=" + std::string(strategy_name(strategy)));
    EnsembleOptions options;
    options.strategy = strategy;
    options.site_cap = 6;
    options.dedicated_baseline = false;
    const EnsembleReport reference =
        run_report(site, options, /*shards=*/0,
                   exp::PolicyKind::ReactiveConserving, /*jobs=*/6, 13);
    const EnsembleReport windowed =
        run_report(site, options, /*shards=*/1,
                   exp::PolicyKind::ReactiveConserving, 6, 13);
    EXPECT_TRUE(windowed == reference);
    EXPECT_EQ(windowed.render(), reference.render());
  }
}

TEST(WindowedDriver, MatchesReferenceUnderFaultChaos) {
  // The hostile fault model keeps InstanceCrash / fault-mode InstanceReady
  // events (and crash-driven retirement churn) in play; the windowed report
  // must still match the reference, across seeds.
  const sim::CloudConfig site = crashy_site();
  EnsembleOptions options;
  options.strategy = ArbiterStrategy::DemandWeighted;
  options.site_cap = 6;
  options.dedicated_baseline = false;
  for (std::uint64_t seed : {21ull, 22ull}) {
    SCOPED_TRACE("stream_seed=" + std::to_string(seed));
    const EnsembleReport reference =
        run_report(site, options, 0, exp::PolicyKind::PureReactive, 6, seed);
    EXPECT_GT(reference.total_task_faults + reference.total_instance_crashes,
              0u)
        << "fault model never engaged — the chaos differential is vacuous";
    const EnsembleReport windowed =
        run_report(site, options, 1, exp::PolicyKind::PureReactive, 6, seed);
    EXPECT_TRUE(windowed == reference);
    EXPECT_EQ(windowed.render(), reference.render());
  }
}

TEST(MemoryDemandSignal, EngineSurfacesProjectedFootprint) {
  // The satellite plumbing under memory_aware_demand: a WIRE tenant with
  // report_memory_demand on must surface a nonzero projected footprint
  // through JobEngine::requested_mem_mb on a memory-enabled site; with the
  // flag off the signal stays hard zero (byte-identical baselines).
  sim::CloudConfig site = quiet_site();
  site.memory.instance_mem_mb = 4096.0;
  site.memory.noise_sigma = 0.2;
  const dag::Workflow wf =
      workload::make_workflow(workload::tpch6_profile(workload::Scale::Small),
                              7);
  for (const bool report : {true, false}) {
    core::WireOptions wire;
    wire.report_memory_demand = report;
    core::WireController policy(wire);
    sim::RunOptions options;
    options.initial_instances = 1;
    options.seed = 5;
    sim::JobEngine engine(wf, policy, site, options);
    engine.start();
    double peak_mem_demand = 0.0;
    while (!engine.done()) {
      engine.step();
      peak_mem_demand = std::max(peak_mem_demand, engine.requested_mem_mb());
    }
    if (report) {
      EXPECT_GT(peak_mem_demand, 0.0);
    } else {
      EXPECT_EQ(peak_mem_demand, 0.0);
    }
  }
}

TEST(MemoryDemandSignal, TightProvisioningSlowdownStaysBounded) {
  // Regression pin for the per-wave footprint bid: the controller used to
  // report the memory of the WHOLE upcoming queue, so on a tightly
  // provisioned site every tenant's bid ballooned to many times its
  // concurrent wave and the memory-aware lift starved the stream (bench
  // mean slowdown 3.90x). Bidding only the wave that can actually run at the
  // planned pool size brings the same cell under 1.5x. This replicates the
  // bench_ensemble tight cell exactly (mem_factor 0.75, demand-weighted WIRE
  // tenants, 50-job Poisson stream, seed 1905) on the windowed engine.
  const std::vector<workload::WorkflowProfile> catalogue = {
      workload::tpch1_profile(workload::Scale::Small),
      workload::tpch6_profile(workload::Scale::Small),
      workload::pagerank_profile(workload::Scale::Small),
      workload::epigenomics_profile(workload::Scale::Small)};
  double need_mb = 0.0;
  for (const workload::WorkflowProfile& profile : catalogue) {
    for (const workload::StageProfile& sp : profile.stages) {
      need_mb = std::max(need_mb, sp.mean_peak_mem_mb);
    }
  }
  PoissonArrivalConfig stream;
  stream.mean_interarrival_seconds = 300.0;
  stream.job_count = 50;
  stream.seed = 1905;
  const ArrivalProcess arrivals =
      ArrivalProcess::poisson(stream, catalogue.size());

  sim::CloudConfig site = exp::paper_cloud(900.0);
  site.memory.instance_mem_mb =
      0.75 * need_mb * static_cast<double>(site.slots_per_instance);
  site.memory.noise_sigma = 0.2;
  core::WireOptions wire_options;
  wire_options.report_memory_demand = true;

  EnsembleOptions options;
  options.strategy = ArbiterStrategy::DemandWeighted;
  options.site_cap = site.max_instances;
  options.memory_aware_demand = true;
  EnsembleDriver driver(catalogue, arrivals,
                        exp::sharded_policy_factory(exp::PolicyKind::Wire,
                                                    wire_options),
                        site, options);
  const EnsembleReport report = driver.run();
  EXPECT_EQ(report.jobs.size(), 50u);
  EXPECT_LT(report.mean_slowdown, 1.5);
}

TEST(WindowedDriver, MemoryAwareDemandMatchesReference) {
  // Memory-aware arbitration (projected-footprint bids lifted into instance
  // counts) rides the same cached demand rows; the flag must not break the
  // match with the reference. WIRE tenants report the projected footprint.
  sim::CloudConfig site = quiet_site();
  site.memory.instance_mem_mb = 4096.0;
  site.memory.noise_sigma = 0.2;
  EnsembleOptions options;
  options.strategy = ArbiterStrategy::DemandWeighted;
  options.site_cap = 6;
  options.dedicated_baseline = false;
  options.memory_aware_demand = true;
  core::WireOptions wire;
  wire.report_memory_demand = true;
  const EnsembleReport reference =
      run_report(site, options, 0, exp::PolicyKind::Wire, 3, 13, wire);
  const EnsembleReport windowed =
      run_report(site, options, 1, exp::PolicyKind::Wire, 3, 13, wire);
  EXPECT_TRUE(windowed == reference);
  EXPECT_EQ(windowed.render(), reference.render());
}

TEST(WindowedDriver, BanditSelectorMatchesReference) {
  // Selector-on cells: every WIRE tenant runs its own BanditSelector (all
  // seeded from the same bandit.seed), and the arm switches it drives
  // through TaskPredictor::reconfigure must be the same on both driver
  // loops. Aggressive exploration plus a
  // short switch period keeps arm churn constant; the crashy site keeps the
  // fault stream in play under that churn.
  core::WireOptions wire;
  wire.bandit.arms = 4;
  wire.bandit.seed = 77;
  wire.bandit.epsilon0 = 1.0;
  wire.bandit.decay = 0.0;
  wire.bandit.switch_period_ticks = 2;
  EnsembleOptions options;
  options.strategy = ArbiterStrategy::DemandWeighted;
  options.site_cap = 6;
  options.dedicated_baseline = false;
  for (const bool chaos : {false, true}) {
    SCOPED_TRACE(chaos ? "site=crashy" : "site=quiet");
    const sim::CloudConfig site = chaos ? crashy_site() : quiet_site();
    const EnsembleReport reference =
        run_report(site, options, 0, exp::PolicyKind::Wire, 4, 13, wire);
    const EnsembleReport windowed =
        run_report(site, options, 1, exp::PolicyKind::Wire, 4, 13, wire);
    EXPECT_TRUE(windowed == reference);
    EXPECT_EQ(windowed.render(), reference.render());
  }
}

TEST(WindowedDriver, CapacityInvariantHoldsAtSiteEvents) {
  // The windowed engine's site listener fires at site events only; the
  // capacity invariant must hold at every one of them.
  EnsembleOptions options;
  options.strategy = ArbiterStrategy::DemandWeighted;
  options.site_cap = 4;
  options.dedicated_baseline = false;
  EnsembleDriver driver(
      small_profiles(), burst_stream(5, 60.0),
      exp::sharded_policy_factory(exp::PolicyKind::PureReactive), quiet_site(),
      options);
  std::size_t samples = 0;
  driver.set_site_listener([&](const SiteSample& sample) {
    ++samples;
    ASSERT_LE(sample.live_total, sample.site_cap);
    std::uint32_t share_total = 0;
    for (std::size_t i = 0; i < sample.jobs.size(); ++i) {
      ASSERT_GE(sample.shares[i], sample.live[i]);
      share_total += sample.shares[i];
    }
    ASSERT_LE(share_total, sample.site_cap);
  });
  const EnsembleReport report = driver.run();
  EXPECT_EQ(report.jobs.size(), 5u);
  EXPECT_GT(samples, report.jobs.size());  // many site events per job
}

/// One ensemble run with every tenant wrapped in a BudgetPolicy and the
/// budget threaded through EnsembleOptions (the demand-signal seed for
/// waiting tenants plus the report columns).
EnsembleReport run_budget_report(const sim::CloudConfig& site,
                                 EnsembleOptions options, std::uint32_t shards,
                                 double budget_units, std::uint32_t jobs,
                                 std::uint64_t stream_seed) {
  options.shards = shards;
  options.budget_units = budget_units;
  policies::BudgetOptions budget;
  budget.budget_units = budget_units;
  EnsembleDriver driver(
      small_profiles(), burst_stream(jobs, 90.0, stream_seed),
      exp::sharded_budget_policy_factory(exp::PolicyKind::ReactiveConserving,
                                         budget),
      site, options);
  return driver.run();
}

TEST(BudgetArbitration, WindowedMatchesReferenceAcrossBudgetTightness) {
  // Budget-weighted arbitration rides the same cached rows as the other
  // strategies, so the windowed engine must reproduce the sequential
  // reference byte-for-byte — with budgets tight (tenants hit exhaustion and
  // bid their way down to the floor) and ample (weights saturate, never
  // bind).
  const sim::CloudConfig site = quiet_site();
  for (const double budget_units : {3.0, 1e6}) {
    EnsembleOptions options;
    options.strategy = ArbiterStrategy::BudgetWeighted;
    options.site_cap = 6;
    options.dedicated_baseline = false;
    const EnsembleReport reference = run_budget_report(
        site, options, /*shards=*/0, budget_units, /*jobs=*/6, 13);
    // The budget columns and the render's budget line are live.
    for (const JobOutcome& j : reference.jobs) {
      EXPECT_EQ(j.budget_units, budget_units);
      EXPECT_EQ(j.over_budget_units,
                std::max(0.0, j.cost_units - j.budget_units));
    }
    EXPECT_NE(reference.render().find("budget:"), std::string::npos);
    SCOPED_TRACE("budget=" + std::to_string(budget_units));
    const EnsembleReport windowed =
        run_budget_report(site, options, /*shards=*/1, budget_units, 6, 13);
    EXPECT_TRUE(windowed == reference);
    EXPECT_EQ(windowed.render(), reference.render());
  }
}

TEST(BudgetArbitration, WindowedMatchesReferenceUnderFaultChaos) {
  // Tight budgets under the hostile fault model: exhaustion, crash-driven
  // retirement churn and budget-weighted bidding together must give the
  // same report on both driver loops, across seeds.
  const sim::CloudConfig site = crashy_site();
  EnsembleOptions options;
  options.strategy = ArbiterStrategy::BudgetWeighted;
  options.site_cap = 6;
  options.dedicated_baseline = false;
  for (std::uint64_t seed : {21ull, 29ull}) {
    SCOPED_TRACE("stream_seed=" + std::to_string(seed));
    const EnsembleReport reference =
        run_budget_report(site, options, 0, /*budget_units=*/4.0, 6, seed);
    EXPECT_GT(reference.total_task_faults + reference.total_instance_crashes,
              0u)
        << "fault model never engaged — the chaos differential is vacuous";
    const EnsembleReport windowed =
        run_budget_report(site, options, 1, 4.0, 6, seed);
    EXPECT_TRUE(windowed == reference);
    EXPECT_EQ(windowed.render(), reference.render());
  }
}

TEST(BudgetArbitration, BudgetOffKeepsBaselineBytes) {
  // The budget-off identity contract at the ensemble layer: a zero budget
  // through the budget factory (and EnsembleOptions left at its 0 default)
  // must reproduce the unbudgeted factory's report bytes on both loops.
  const sim::CloudConfig site = quiet_site();
  EnsembleOptions options;
  options.strategy = ArbiterStrategy::DemandWeighted;
  options.site_cap = 6;
  options.dedicated_baseline = false;
  const EnsembleReport reference = run_report(
      site, options, 0, exp::PolicyKind::ReactiveConserving, 6, 13);
  EXPECT_EQ(reference.render().find("budget:"), std::string::npos);
  for (std::uint32_t shards : {0u, 1u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const EnsembleReport off =
        run_budget_report(site, options, shards, /*budget_units=*/0.0, 6, 13);
    EXPECT_TRUE(off == reference);
    EXPECT_EQ(off.render(), reference.render());
  }
}

// ---------------------------------------------------------------------------
// Wide site: the incremental serial phase (cached rows and keys, skipped
// rebalances) at hundreds of live tenants

/// Every site event a run emitted, in order.
struct RecordedRun {
  EnsembleReport report;
  std::vector<SiteSample> samples;
};

bool same_sample(const SiteSample& a, const SiteSample& b) {
  return a.now == b.now && a.site_cap == b.site_cap &&
         a.live_total == b.live_total && a.jobs == b.jobs && a.live == b.live &&
         a.shares == b.shares;
}

enum class Channel { Off, Staggered, Diluted };

/// 320 budget-capped WIRE tenants landing 3 s apart on a crashy site under
/// budget-weighted arbitration, optionally with a shared checkpoint channel.
RecordedRun run_wide_site(Channel channel, std::uint32_t shards) {
  sim::CloudConfig site = crashy_site();
  if (channel != Channel::Off) {
    site.checkpoint.channel_bandwidth_mb_per_s = 200.0;
    site.checkpoint.interval_policy =
        sim::CheckpointConfig::IntervalPolicy::Static;
    site.checkpoint.static_interval_seconds = 30.0;
  }
  EnsembleOptions options;
  options.strategy = ArbiterStrategy::BudgetWeighted;
  options.site_cap = 40;
  options.dedicated_baseline = false;
  options.stagger_checkpoints = channel == Channel::Staggered;
  options.budget_units = 3.0;
  options.shards = shards;
  policies::BudgetOptions budget;
  budget.budget_units = 3.0;
  EnsembleDriver driver(
      small_profiles(), burst_stream(320, 3.0, 17),
      exp::sharded_budget_policy_factory(exp::PolicyKind::Wire, budget), site,
      options);
  RecordedRun run;
  driver.set_site_listener(
      [&run](const SiteSample& sample) { run.samples.push_back(sample); });
  run.report = driver.run();
  return run;
}

/// Runs the wide site on the windowed engine and checks that the scenario
/// engaged: every job finished, crashes happened, and the site got wide.
RecordedRun run_windowed_wide_site(Channel channel) {
  RecordedRun run = run_wide_site(channel, /*shards=*/1);
  EXPECT_EQ(run.report.jobs.size(), 320u);
  EXPECT_GT(run.report.total_instance_crashes, 0u)
      << "fault model never engaged — the chaos differential is vacuous";
  std::size_t peak_rows = 0;
  for (const SiteSample& sample : run.samples) {
    peak_rows = std::max(peak_rows, sample.jobs.size());
  }
  EXPECT_GE(peak_rows, 128u) << "site never got wide";
  return run;
}

/// Runs the windowed wide site twice and requires identical reports and
/// identical site-sample streams, sample by sample.
void expect_windowed_replays(Channel channel) {
  const RecordedRun first = run_windowed_wide_site(channel);
  const RecordedRun second = run_wide_site(channel, /*shards=*/1);
  EXPECT_TRUE(second.report == first.report);
  EXPECT_EQ(second.report.render(), first.report.render());
  ASSERT_EQ(second.samples.size(), first.samples.size());
  for (std::size_t k = 0; k < second.samples.size(); ++k) {
    ASSERT_TRUE(same_sample(second.samples[k], first.samples[k]))
        << "first differing site sample #" << k;
  }
}

/// FNV-1a over `n` raw bytes, continuing from `h`.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

std::uint64_t fnv1a_rows(std::uint64_t h,
                         const std::vector<std::uint32_t>& rows) {
  const std::uint64_t n = rows.size();
  h = fnv1a(h, &n, sizeof n);
  return fnv1a(h, rows.data(), rows.size() * sizeof(std::uint32_t));
}

/// Digest of a whole site-sample stream: every field of every sample, in
/// order (times by bit pattern).
std::uint64_t samples_digest(const std::vector<SiteSample>& samples) {
  std::uint64_t h = kFnvOffset;
  for (const SiteSample& s : samples) {
    h = fnv1a(h, &s.now, sizeof s.now);
    h = fnv1a(h, &s.site_cap, sizeof s.site_cap);
    h = fnv1a(h, &s.live_total, sizeof s.live_total);
    h = fnv1a_rows(h, s.jobs);
    h = fnv1a_rows(h, s.live);
    h = fnv1a_rows(h, s.shares);
  }
  return h;
}

/// What the event-at-a-time reference loop (shards == 0) produced on the
/// wide site before it became a mode of the windowed loop: the digest of
/// EnsembleReport::render(), the report's closing summary lines verbatim,
/// and the count and digest of the site-sample stream.
struct ReferenceGolden {
  Channel channel;
  const char* name;
  std::uint64_t render_digest;
  const char* render_tail;
  std::size_t samples;
  std::uint64_t samples_digest;
};

/// render()'s lines after the per-job table: horizon, faults, budget.
std::string render_tail(const std::string& render) {
  const std::size_t at = render.find("horizon ");
  return at == std::string::npos ? std::string() : render.substr(at);
}

TEST(WideSite, ReferenceLoopMatchesRecordedGoldens) {
  // The staggered and diluted cases are not covered by the windowed
  // differential (the two modes differ there), so these pins are what keep
  // the reference mode's behaviour fixed.
  const ReferenceGolden goldens[] = {
      {Channel::Off, "off", 0xa22eab1c2329eda4ull,
       "horizon 3257.5 s, total cost 336.00 units, site utilization 0.4730, "
       "allocation ratio 0.7443, throughput 353.645 jobs/h, mean wait 609.4 "
       "s, slowdown mean 0.000 / max 0.000\n"
       "faults: task faults 1183, instance crashes 16, quarantined tasks 76\n"
       "budget: 0/320 jobs over budget, total overrun 0.00 units\n",
       75535, 0xed0ae9c004bb3b23ull},
      {Channel::Staggered, "staggered", 0x8fc842d8e3c1c244ull,
       "horizon 3260.9 s, total cost 336.00 units, site utilization 0.4728, "
       "allocation ratio 0.7441, throughput 353.277 jobs/h, mean wait 610.2 "
       "s, slowdown mean 0.000 / max 0.000\n"
       "faults: task faults 1184, instance crashes 16, quarantined tasks 76\n"
       "budget: 0/320 jobs over budget, total overrun 0.00 units\n",
       75719, 0xb3cb88338ed393a2ull},
      {Channel::Diluted, "diluted", 0xb25b9e06c0c10d58ull,
       "horizon 4010.7 s, total cost 340.00 units, site utilization 0.4764, "
       "allocation ratio 0.7700, throughput 287.230 jobs/h, mean wait 886.1 "
       "s, slowdown mean 0.000 / max 0.000\n"
       "faults: task faults 1167, instance crashes 20, quarantined tasks 171\n"
       "budget: 0/320 jobs over budget, total overrun 0.00 units\n",
       84908, 0x6a1fe500a201e824ull},
  };
  for (const ReferenceGolden& g : goldens) {
    SCOPED_TRACE(std::string("channel=") + g.name);
    const RecordedRun run = run_wide_site(g.channel, /*shards=*/0);
    const std::string render = run.report.render();
    EXPECT_EQ(fnv1a(kFnvOffset, render.data(), render.size()),
              g.render_digest);
    EXPECT_EQ(render_tail(render), g.render_tail);
    EXPECT_EQ(run.samples.size(), g.samples);
    EXPECT_EQ(samples_digest(run.samples), g.samples_digest);
  }
}

TEST(WideSite, MatchesSequentialReference) {
  // Hundreds of live rows, budget-weighted bids and crashes: the cached
  // rows and keys and the skipped rebalances must reproduce the reference,
  // which re-reads and re-installs every row at every event.
  const RecordedRun windowed = run_windowed_wide_site(Channel::Off);
  const RecordedRun reference = run_wide_site(Channel::Off, /*shards=*/0);
  EXPECT_TRUE(windowed.report == reference.report);
  EXPECT_EQ(windowed.report.render(), reference.report.render());
}

// With a checkpoint channel the windowed engine is compared with itself
// only. An engine that completes inside an advance window retires at its
// completion time, after the other tenants already ran their local events
// up to the horizon, so the grants that retirement changes reach them later
// in their own event streams than in the event-at-a-time reference, and the
// reports differ. That gap predates the incremental serial phase; closing it
// changes the windowed engine's results (see ROADMAP.md).

TEST(WideSite, StaggeredCheckpointsReplayIdentically) {
  // Staggered channel windows on top of the above: a second run must
  // reproduce every report field and every site sample.
  expect_windowed_replays(Channel::Staggered);
}

TEST(WideSite, DilutedChannelRearmedGuardsReplayIdentically) {
  // Regression for the cached event keys: without staggering each tenant's
  // bandwidth is the channel divided by the number of tenants with
  // checkpoint pressure, so a rebalance that changes that number changes
  // bandwidths under in-flight writes, and set_checkpoint_channel re-arms
  // the tenant's checkpoint guard — earlier than its cached next event when
  // the bandwidth rose. A driver that does not re-key the tenant after the
  // install trips its stale-key check (or steps the tenant late).
  expect_windowed_replays(Channel::Diluted);
}

TEST(WindowedChaos, EnvironmentSeedRuns) {
  // CI chaos: WIRE_FUZZ_SEED (echoed in the job log) picks the arrival
  // stream seed for one extra differential run under the hostile fault
  // model.
  const char* env = std::getenv("WIRE_FUZZ_SEED");
  if (env == nullptr) GTEST_SKIP() << "WIRE_FUZZ_SEED not set";
  const std::uint64_t seed = std::strtoull(env, nullptr, 10);
  SCOPED_TRACE("WIRE_FUZZ_SEED=" + std::to_string(seed));
  std::printf("running windowed differential with WIRE_FUZZ_SEED=%llu\n",
              static_cast<unsigned long long>(seed));
  EnsembleOptions options;
  options.strategy = ArbiterStrategy::DemandWeighted;
  options.site_cap = 6;
  options.dedicated_baseline = false;
  const EnsembleReport reference = run_report(
      crashy_site(), options, 0, exp::PolicyKind::PureReactive, 6, seed);
  const EnsembleReport windowed = run_report(
      crashy_site(), options, 1, exp::PolicyKind::PureReactive, 6, seed);
  EXPECT_TRUE(windowed == reference);
  EXPECT_EQ(windowed.render(), reference.render());
}

}  // namespace
}  // namespace wire::ensemble
