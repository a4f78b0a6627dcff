#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace wire::util {

double median(std::vector<double> values) {
  WIRE_REQUIRE(!values.empty(), "median of empty sample");
  const std::size_t n = values.size();
  const std::size_t mid = n / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (n % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

double quantile(std::vector<double> values, double q) {
  WIRE_REQUIRE(!values.empty(), "quantile of empty sample");
  WIRE_REQUIRE(q >= 0.0 && q <= 1.0, "quantile q out of [0,1]");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  WIRE_REQUIRE(!values.empty(), "mean of empty sample");
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double stddev(const std::vector<double>& values) {
  WIRE_REQUIRE(!values.empty(), "stddev of empty sample");
  const double m = mean(values);
  double acc = 0.0;
  for (double v : values) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(values.size()));
}

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const {
  WIRE_REQUIRE(n_ >= 1, "mean of empty RunningStats");
  return mean_;
}

double RunningStats::variance() const {
  WIRE_REQUIRE(n_ >= 1, "variance of empty RunningStats");
  return m2_ / static_cast<double>(n_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  WIRE_REQUIRE(n_ >= 1, "min of empty RunningStats");
  return min_;
}

double RunningStats::max() const {
  WIRE_REQUIRE(n_ >= 1, "max of empty RunningStats");
  return max_;
}

void CdfBuilder::add_all(const std::vector<double>& xs) {
  samples_.insert(samples_.end(), xs.begin(), xs.end());
  sorted_ = false;
}

void CdfBuilder::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double CdfBuilder::fraction_at_most(double x) const {
  WIRE_REQUIRE(!samples_.empty(), "CDF of empty sample set");
  ensure_sorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

double CdfBuilder::fraction_within(double x) const {
  WIRE_REQUIRE(!samples_.empty(), "CDF of empty sample set");
  WIRE_REQUIRE(x >= 0.0, "fraction_within band must be non-negative");
  std::size_t hits = 0;
  for (double s : samples_) {
    if (std::abs(s) <= x) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(samples_.size());
}

std::vector<std::pair<double, double>> CdfBuilder::curve(
    double lo, double hi, std::size_t points) const {
  WIRE_REQUIRE(points >= 2, "CDF curve needs at least 2 points");
  WIRE_REQUIRE(lo < hi, "CDF curve range inverted");
  std::vector<std::pair<double, double>> out;
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double x =
        lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(points - 1);
    out.emplace_back(x, fraction_at_most(x));
  }
  return out;
}

double CdfBuilder::quantile(double q) const {
  WIRE_REQUIRE(!samples_.empty(), "quantile of empty sample set");
  ensure_sorted();
  return wire::util::quantile(samples_, q);
}

}  // namespace wire::util
