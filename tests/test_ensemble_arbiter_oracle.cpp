// Property suite for the site arbiter's fast path: allocate_shares and
// allocate_checkpoint_windows must return exactly what the sort-based
// reference in tests/oracle/ returns, for every strategy and every input —
// memory-aware lifting, budget weights down to the 1/32-unit floor, many
// equal remainders, equal arrival times broken by job id, rows handed over
// in any order, and sites up to 4096 tenants wide.
//
// Randomized cases announce their seed via SCOPED_TRACE; WIRE_FUZZ_SEED adds
// one environment-chosen seed (the CI faults-fuzz job sets it to a
// time-derived value and echoes it into the log).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "ensemble/arbiter.h"
#include "oracle/arbiter_oracle.h"
#include "util/rng.h"

namespace wire::ensemble {
namespace {

/// Compares the production arbiter with the oracle on one site: all four
/// strategies, and the checkpoint channel diluted and staggered.
void expect_matches_oracle(const ArbiterConfig& config,
                           const std::vector<TenantDemand>& rows) {
  for (ArbiterStrategy strategy : all_strategies()) {
    SCOPED_TRACE(strategy_name(strategy));
    ASSERT_EQ(allocate_shares(strategy, config, rows),
              oracle::allocate_shares(strategy, config, rows));
  }
  for (const bool stagger : {false, true}) {
    SCOPED_TRACE(stagger ? "staggered channel" : "diluted channel");
    ArbiterConfig ckpt = config;
    ckpt.checkpoint_bandwidth_mb_per_s = 200.0;
    ckpt.stagger_checkpoints = stagger;
    ckpt.stagger_period_seconds = 180.0;
    ASSERT_TRUE(allocate_checkpoint_windows(ckpt, rows) ==
                oracle::allocate_checkpoint_windows(ckpt, rows));
  }
}

/// A remaining budget drawn to hit every branch of the budget weight: not
/// reported, exhausted, below the 1/32-unit rounding floor, ordinary, and
/// above the 2^16-unit clamp.
double random_budget(util::Rng& rng) {
  switch (rng.uniform_int(0, 6)) {
    case 0: return -1.0;
    case 1: return 0.0;
    case 2: return rng.uniform(1e-6, 1.0 / 32.0);
    case 3: return 1.0 / 32.0;
    case 4: return 1e6;
    default: return rng.uniform(0.0, 8.0);
  }
}

/// One random site of `n` tenants. Arrival times come from a few distinct
/// values so equal arrivals (broken by job id) are common; job ids are a
/// shuffled range, so job-id order and input order disagree. `equal_demand`
/// gives every tenant the same floor and ask, which makes every
/// largest-remainder a tie.
struct RandomSite {
  ArbiterConfig config;
  std::vector<TenantDemand> rows;
};

RandomSite random_site(util::Rng& rng, std::uint32_t n, bool equal_demand,
                       bool shuffled) {
  RandomSite site;
  const std::uint32_t cap = static_cast<std::uint32_t>(
      rng.uniform_int(1, std::max<std::int64_t>(2, 3 * std::int64_t{n} / 2)));
  site.config.site_cap = cap;
  if (rng.bernoulli(0.5)) site.config.instance_mem_mb = rng.uniform(512, 8192);

  std::vector<std::uint32_t> jobs(n);
  for (std::uint32_t i = 0; i < n; ++i) jobs[i] = 3 * i + 1;
  std::shuffle(jobs.begin(), jobs.end(), rng.engine());
  const std::int64_t distinct_arrivals =
      std::max<std::int64_t>(1, std::int64_t{n} / 4);

  // Live floors: at most the cap in total, most tenants at zero.
  std::uint32_t live_budget =
      static_cast<std::uint32_t>(rng.uniform_int(0, cap));
  const std::uint32_t equal_live =
      equal_demand ? static_cast<std::uint32_t>(live_budget / n) : 0;
  const std::uint32_t equal_ask =
      equal_live + static_cast<std::uint32_t>(rng.uniform_int(1, 4));
  site.rows.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    TenantDemand& row = site.rows[i];
    row.job = jobs[i];
    row.arrival_seconds =
        30.0 * static_cast<double>(rng.uniform_int(0, distinct_arrivals - 1));
    if (equal_demand) {
      row.live_instances = equal_live;
      row.requested_pool = equal_ask;
    } else {
      if (live_budget > 0 && rng.bernoulli(0.4)) {
        row.live_instances = static_cast<std::uint32_t>(
            rng.uniform_int(1, std::min<std::uint32_t>(live_budget, 6)));
        live_budget -= row.live_instances;
      }
      row.requested_pool =
          static_cast<std::uint32_t>(rng.uniform_int(0, cap + 4));
    }
    if (rng.bernoulli(0.3)) row.requested_mem_mb = rng.uniform(1.0, 40000.0);
    if (rng.bernoulli(0.4)) row.checkpoint_mb = rng.uniform(1.0, 4096.0);
    row.remaining_budget_units = equal_demand ? 2.0 : random_budget(rng);
  }
  if (!shuffled) {
    std::sort(site.rows.begin(), site.rows.end(),
              [](const TenantDemand& a, const TenantDemand& b) {
                if (a.arrival_seconds != b.arrival_seconds) {
                  return a.arrival_seconds < b.arrival_seconds;
                }
                return a.job < b.job;
              });
  }
  return site;
}

void sweep(std::uint64_t seed) {
  util::Rng rng(seed);
  for (const std::uint32_t n : {1u, 2u, 3u, 5u, 8u, 17u, 64u, 300u, 1024u,
                                4096u}) {
    const int cases = n >= 1024 ? 6 : 40;
    for (int c = 0; c < cases; ++c) {
      const bool equal_demand = c % 4 == 1;
      const bool shuffled = c % 2 == 0;
      SCOPED_TRACE("n=" + std::to_string(n) + " case=" + std::to_string(c) +
                   (equal_demand ? " equal-demand" : "") +
                   (shuffled ? " shuffled" : " fifo"));
      const RandomSite site = random_site(rng, n, equal_demand, shuffled);
      expect_matches_oracle(site.config, site.rows);
      if (testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(ArbiterOracle, RandomSitesMatchOracle) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 41ull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    sweep(seed);
    if (HasFatalFailure()) return;
  }
}

TEST(ArbiterOracle, EqualRemaindersGoToEarliestArrivals) {
  // Seven idle tenants asking for two instances each on a ten-instance site:
  // each gets one, every remainder ties, so the three earliest arrivals (job
  // id breaking the arrival tie) get the second — whatever order the rows
  // come in.
  std::vector<TenantDemand> rows(7);
  const std::uint32_t jobs[7] = {9, 4, 6, 2, 8, 5, 3};
  const double arrivals[7] = {20.0, 10.0, 10.0, 30.0, 0.0, 10.0, 40.0};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].job = jobs[i];
    rows[i].arrival_seconds = arrivals[i];
    rows[i].requested_pool = 2;
    rows[i].remaining_budget_units = 5.0;
  }
  ArbiterConfig config;
  config.site_cap = 10;
  // FIFO: job 8 (t=0), then jobs 4, 5, 6 (t=10, by job id), ...
  const std::vector<std::uint32_t> expect = {1, 2, 1, 1, 2, 2, 1};
  for (ArbiterStrategy strategy :
       {ArbiterStrategy::DemandWeighted, ArbiterStrategy::BudgetWeighted}) {
    SCOPED_TRACE(strategy_name(strategy));
    EXPECT_EQ(allocate_shares(strategy, config, rows), expect);
  }
  expect_matches_oracle(config, rows);
}

TEST(ArbiterOracle, BudgetFloorKeepsNearlyBrokeTenantsBidding) {
  // Below 1/32 of a charging unit the fixed-point weight rounds to zero; the
  // floor of one keeps such a tenant bidding, unlike an exhausted one.
  std::vector<TenantDemand> rows(3);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].job = static_cast<std::uint32_t>(i);
    rows[i].arrival_seconds = static_cast<double>(i);
    rows[i].live_instances = 1;
    rows[i].requested_pool = 5;
  }
  rows[0].remaining_budget_units = 0.0;    // exhausted
  rows[1].remaining_budget_units = 0.01;   // nearly broke, still solvent
  rows[2].remaining_budget_units = 0.02;
  ArbiterConfig config;
  config.site_cap = 6;
  const std::vector<std::uint32_t> shares =
      allocate_shares(ArbiterStrategy::BudgetWeighted, config, rows);
  EXPECT_EQ(shares[0], 1u);
  EXPECT_GT(shares[1], 1u);
  EXPECT_GT(shares[2], 1u);
  expect_matches_oracle(config, rows);
}

TEST(ArbiterOracle, EnvironmentSeedRuns) {
  const char* env = std::getenv("WIRE_FUZZ_SEED");
  if (env == nullptr) GTEST_SKIP() << "WIRE_FUZZ_SEED not set";
  const std::uint64_t seed = std::strtoull(env, nullptr, 10);
  SCOPED_TRACE("WIRE_FUZZ_SEED=" + std::to_string(seed));
  std::printf("running arbiter oracle sweep with WIRE_FUZZ_SEED=%llu\n",
              static_cast<unsigned long long>(seed));
  sweep(seed);
}

}  // namespace
}  // namespace wire::ensemble
