// The input-size equivalence rule shared by every estimator that groups
// tasks by input size (TaskPredictor's policy-4 groups and OGD training set,
// HistoryEstimator's per-size medians): two sizes are "equivalent" when they
// fall in the same geometric bucket of width (1 + rel_tol).
#pragma once

#include <cmath>
#include <limits>

namespace wire::predict {

/// Geometric bucket key of `input_mb` under relative tolerance `rel_tol`;
/// equal keys = equivalent sizes. Non-positive sizes (no input) share one
/// sentinel bucket below every real key.
inline long input_bucket_key(double input_mb, double rel_tol) {
  if (input_mb <= 0.0) return std::numeric_limits<long>::min();
  return std::lround(std::log(input_mb) / std::log1p(rel_tol));
}

}  // namespace wire::predict
