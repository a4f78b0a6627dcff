// Unit tests for the statistics primitives (medians, quantiles, running
// moments, CDFs) that the predictor and the metric collectors rely on.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/check.h"
#include "util/stats.h"

namespace wire::util {
namespace {

TEST(Median, OddSample) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Median, EvenSampleAveragesMiddlePair) {
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Median, SingleElement) {
  EXPECT_DOUBLE_EQ(median({7.5}), 7.5);
}

TEST(Median, RobustToOutliers) {
  // The paper prefers the median over the mean for skewed (Zipfian-like)
  // samples: one huge outlier must not move the estimate.
  EXPECT_DOUBLE_EQ(median({1.0, 2.0, 3.0, 10000.0, 2.5}), 2.5);
}

TEST(Median, EmptySampleThrows) {
  EXPECT_THROW(median({}), ContractViolation);
}

TEST(Quantile, MatchesOrderStatistics) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.0);
}

TEST(Quantile, InterpolatesBetweenPoints) {
  std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.3), 3.0);
}

TEST(MeanStddev, Basics) {
  std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
  EXPECT_DOUBLE_EQ(stddev(v), 2.0);
}

TEST(RunningStats, MatchesBatchStatistics) {
  std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  RunningStats rs;
  for (double x : v) rs.add(x);
  EXPECT_EQ(rs.count(), v.size());
  EXPECT_NEAR(rs.mean(), mean(v), 1e-12);
  EXPECT_NEAR(rs.stddev(), stddev(v), 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

TEST(RunningStats, EmptyThrows) {
  RunningStats rs;
  EXPECT_TRUE(rs.empty());
  EXPECT_THROW(rs.mean(), ContractViolation);
  EXPECT_THROW(rs.stddev(), ContractViolation);
}

TEST(CdfBuilder, FractionAtMost) {
  CdfBuilder cdf;
  cdf.add_all({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(2.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(10.0), 1.0);
}

TEST(CdfBuilder, SymmetricBand) {
  CdfBuilder cdf;
  cdf.add_all({-2.0, -0.5, 0.0, 0.4, 3.0});
  EXPECT_DOUBLE_EQ(cdf.fraction_within(0.5), 0.6);
  EXPECT_DOUBLE_EQ(cdf.fraction_within(0.1), 0.2);
}

TEST(CdfBuilder, CurveIsMonotone) {
  CdfBuilder cdf;
  for (int i = 0; i < 100; ++i) cdf.add(std::sin(i * 0.7) * 10.0);
  const auto curve = cdf.curve(-10.0, 10.0, 21);
  ASSERT_EQ(curve.size(), 21u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i - 1].second, curve[i].second);
  }
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

TEST(CdfBuilder, InterleavedAddAndQuery) {
  CdfBuilder cdf;
  cdf.add(1.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(1.0), 1.0);
  cdf.add(5.0);  // re-sorting must happen lazily after the new sample
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(1.0), 0.5);
}

}  // namespace
}  // namespace wire::util
