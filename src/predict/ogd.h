// Online gradient descent model (paper Algorithm 1, Eq. 1).
//
// Per stage, task execution time is modeled as a linear function of input
// data size: t_i = a0_n + a1_n * d_i. Each MAPE iteration runs one gradient
// epoch over the stage's current training set (groups of completed tasks with
// the same input size, target = the group's median execution time), starting
// from the previous iteration's coefficients, with learning rate 0.1.
//
// Implementation note: Algorithm 1 as printed assumes features of order 1.
// With raw inputs in the hundreds of MB the step lr * d^2 diverges, so the
// model trains in a normalized space (d' = d/d_scale, t' = t/t_scale, scales
// tracked online from the training data) and converts coefficients back on
// prediction. The arithmetic inside the normalized space is exactly
// Algorithm 1. This is recorded as an implementation substitution in
// DESIGN.md.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace wire::predict {

/// One training point: a group M of completed peer tasks with (near-)equal
/// input size. `input_mb` is d_M; `exec_seconds` is t_M, the group's median
/// execution time.
struct TrainingPoint {
  double input_mb = 0.0;
  double exec_seconds = 0.0;
};

class OgdModel {
 public:
  explicit OgdModel(double learning_rate = 0.1)
      : learning_rate_(learning_rate) {}

  /// Runs one Algorithm-1 epoch over `training` (the stage's full current
  /// training set), updating the coefficients from their previous values.
  /// Empty training sets are a no-op.
  void update(const std::vector<TrainingPoint>& training);

  /// Predicted execution time (seconds) for a task with the given input
  /// size. Clamped at zero (a linear model can extrapolate negative).
  double predict(double input_mb) const;

  /// Coefficients in raw units: seconds and seconds/MB.
  double alpha0() const;
  double alpha1() const;

  /// Retargets the step size for subsequent epochs (predictor
  /// reconfiguration). Coefficients, scales and epoch count are untouched —
  /// the model continues from where the old rate left it.
  void set_learning_rate(double learning_rate) {
    learning_rate_ = learning_rate;
  }

  std::size_t epochs() const { return epochs_; }

 private:
  double learning_rate_;
  // Coefficients in normalized space; alpha = 0 initial state (paper takes
  // a0_0 = a1_0 = 0).
  double a0_ = 0.0;
  double a1_ = 0.0;
  // Normalization scales (1.0 until the first non-degenerate training set).
  double d_scale_ = 1.0;
  double t_scale_ = 1.0;
  bool scaled_ = false;
  std::size_t epochs_ = 0;
};

}  // namespace wire::predict
