// Statistics primitives shared across the WIRE libraries.
//
// The paper leans on medians ("the median is more effective to capture the
// middle performance of skewed data distributions", §III-C) and CDFs of
// prediction errors (Fig. 4). These helpers implement exactly those notions
// once so that the predictor, the metrics collectors, and the benches agree
// on definitions.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace wire::util {

/// Median of a sample. For even sizes returns the mean of the two middle
/// order statistics. Requires a non-empty sample.
double median(std::vector<double> values);

/// q-quantile (q in [0,1]) by linear interpolation between order statistics
/// (type-7, the numpy default). Requires a non-empty sample.
double quantile(std::vector<double> values, double q);

/// Arithmetic mean. Requires a non-empty sample.
double mean(const std::vector<double>& values);

/// Population standard deviation (divides by N). Requires a non-empty sample.
double stddev(const std::vector<double>& values);

/// Streaming mean/variance accumulator (Welford). Numerically stable for the
/// long error streams produced by the Fig. 4 harness.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  bool empty() const { return n_ == 0; }
  /// Requires count() >= 1.
  double mean() const;
  /// Population variance; requires count() >= 1.
  double variance() const;
  /// Population standard deviation; requires count() >= 1.
  double stddev() const;
  double min() const;
  double max() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Empirical CDF builder. Collects samples, then reports P[X <= x] and
/// fixed-grid CDF curves for the Fig. 4 style plots.
class CdfBuilder {
 public:
  void add(double x) { samples_.push_back(x); sorted_ = false; }
  void add_all(const std::vector<double>& xs);

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  /// Fraction of samples <= x. Requires a non-empty sample set.
  double fraction_at_most(double x) const;

  /// Fraction of samples with |sample| <= x (symmetric band around zero, the
  /// paper's "tasks report <= 1 second prediction error" statistic).
  double fraction_within(double x) const;

  /// Evaluates the CDF at `points` evenly spaced values across [lo, hi].
  /// Returns pairs (x, P[X <= x]).
  std::vector<std::pair<double, double>> curve(double lo, double hi,
                                               std::size_t points) const;

  /// q-quantile of the collected samples.
  double quantile(double q) const;

 private:
  void ensure_sorted() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

}  // namespace wire::util
