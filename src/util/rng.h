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

  /// Bernoulli with probability p of true.
  bool bernoulli(double p);

  /// Access to the raw engine for std::shuffle and custom distributions.
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// Derives a statistically independent child seed from a root seed and a
/// stream index (SplitMix64 finalizer). Stable across platforms.
std::uint64_t derive_seed(std::uint64_t root, std::uint64_t stream);

}  // namespace wire::util
