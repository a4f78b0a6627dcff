#include "util/rng.h"

#include <cmath>

#include "util/check.h"

namespace wire::util {

double Rng::uniform(double lo, double hi) {
  WIRE_REQUIRE(lo <= hi, "uniform bounds inverted");
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  WIRE_REQUIRE(lo <= hi, "uniform_int bounds inverted");
  std::uniform_int_distribution<std::int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::exponential(double mean) {
  WIRE_REQUIRE(mean > 0.0, "exponential mean must be positive");
  std::exponential_distribution<double> dist(1.0 / mean);
  return dist(engine_);
}

double Rng::lognormal_median(double median, double sigma) {
  WIRE_REQUIRE(median > 0.0, "lognormal median must be positive");
  WIRE_REQUIRE(sigma >= 0.0, "lognormal sigma must be non-negative");
  std::lognormal_distribution<double> dist(std::log(median), sigma);
  return dist(engine_);
}

bool Rng::bernoulli(double p) {
  WIRE_REQUIRE(p >= 0.0 && p <= 1.0, "bernoulli p out of [0,1]");
  std::bernoulli_distribution dist(p);
  return dist(engine_);
}

std::uint64_t derive_seed(std::uint64_t root, std::uint64_t stream) {
  // SplitMix64 finalizer over the combined value; passes practical
  // independence requirements for experiment fan-out.
  std::uint64_t z = root + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace wire::util
