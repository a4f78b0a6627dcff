// Tests for the seeded RNG wrapper: determinism, distribution sanity, and
// seed-derivation independence — the properties the experiment harness's
// reproducibility rests on.
#include <gtest/gtest.h>

#include <set>

#include "util/check.h"
#include "util/rng.h"
#include "util/stats.h"

namespace wire::util {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0)) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(3, 6));
  EXPECT_EQ(seen, (std::set<std::int64_t>{3, 4, 5, 6}));
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng rng(11);
  RunningStats rs;
  for (int i = 0; i < 20000; ++i) rs.add(rng.exponential(5.0));
  EXPECT_NEAR(rs.mean(), 5.0, 0.2);
  EXPECT_GE(rs.min(), 0.0);
}

TEST(Rng, LognormalMedianApproximatelyCorrect) {
  Rng rng(13);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    samples.push_back(rng.lognormal_median(3.0, 0.5));
  }
  EXPECT_NEAR(median(samples), 3.0, 0.1);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Rng, InvalidArgumentsThrow) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform(2.0, 1.0), ContractViolation);
  EXPECT_THROW(rng.exponential(0.0), ContractViolation);
  EXPECT_THROW(rng.lognormal_median(-1.0, 0.5), ContractViolation);
  EXPECT_THROW(rng.bernoulli(1.5), ContractViolation);
}

TEST(DeriveSeed, DistinctStreamsDistinctSeeds) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 1000; ++s) {
    seeds.insert(derive_seed(42, s));
  }
  EXPECT_EQ(seeds.size(), 1000u);
}

TEST(DeriveSeed, StableAcrossCalls) {
  EXPECT_EQ(derive_seed(42, 7), derive_seed(42, 7));
  EXPECT_NE(derive_seed(42, 7), derive_seed(43, 7));
}

}  // namespace
}  // namespace wire::util
