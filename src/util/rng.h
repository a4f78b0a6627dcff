// Deterministic random-number utilities.
//
// Every stochastic component of the reproduction draws through `Rng`, a thin
// seeded wrapper over std::mt19937_64. Experiment sweeps derive independent
// child seeds with `derive_seed` so that (a) each run is reproducible from a
// single root seed and (b) results do not depend on the order in which
// util::parallel_for happens to schedule runs.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace wire::util {

/// Seeded pseudo-random generator. Copyable; copies continue the same
/// deterministic stream independently.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Exponential with the given mean (mean > 0).
  double exponential(double mean);

  /// Lognormal such that the *median* of the distribution is `median` and the
  /// underlying normal has standard deviation `sigma` (sigma >= 0).
  double lognormal_median(double median, double sigma);

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Bernoulli with probability p of true.
  bool bernoulli(double p);

  /// Zipf-distributed rank in [1, n] with exponent s > 0. Sampled by inverse
  /// transform over the exact normalized mass function (n is small in all of
  /// our workloads, so O(n) setup per call pattern is handled by the caller
  /// via ZipfSampler when performance matters).
  std::uint32_t zipf(std::uint32_t n, double s);

  /// Access to the raw engine for std::shuffle and custom distributions.
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// Pre-tabulated Zipf sampler for repeated draws with fixed (n, s).
class ZipfSampler {
 public:
  /// Requires n >= 1 and s > 0.
  ZipfSampler(std::uint32_t n, double s);

  /// Draws a rank in [1, n]; rank 1 is the most probable.
  std::uint32_t sample(Rng& rng) const;

  std::uint32_t n() const { return n_; }

 private:
  std::uint32_t n_;
  std::vector<double> cdf_;  // cumulative mass, cdf_.back() == 1.0
};

/// Derives a statistically independent child seed from a root seed and a
/// stream index (SplitMix64 finalizer). Stable across platforms.
std::uint64_t derive_seed(std::uint64_t root, std::uint64_t stream);

}  // namespace wire::util
