// Online predictor selection via seeded bandits (ROADMAP: the C++ analogue
// of the MAB predictor-manager exemplar).
//
// The repo benchmarks a static ablation matrix of predictor variants (centre
// statistic, OGD grouping, harvest-failed contamination, adaptive horizon
// cap) without ever choosing among them at runtime. BanditSelector turns
// that matrix into a self-tuning system: a per-controller meta-controller
// over a small arm set of predictor configurations, scoring arms by observed
// misprediction cost (|predicted - actual| execution-time regret per
// completed task, fed once per control tick from the controller's delta
// journal) and switching the live TaskPredictor config between control ticks
// with a seeded explorer.
//
// Determinism contract:
//   - `BanditOptions::arms == 0` is the off sentinel: no selector is
//     constructed, no RNG stream is created, and every existing baseline is
//     byte-identical (hexfloat) to the pre-bandit build.
//   - The explorer draws from its own util::Rng seeded by the caller
//     (typically util::derive_seed from the run seed on a dedicated stream),
//     so enabling the selector perturbs no other stochastic draw in the
//     simulation; the same seed replays the identical arm-switch sequence.
//   - Arm switches are applied through TaskPredictor::reconfigure, which
//     bumps every stage revision — the Analyze/Plan memo keys — so cached
//     estimates can never outlive the config that produced them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "predict/task_predictor.h"
#include "util/rng.h"

namespace wire::predict {

/// One selectable predictor configuration. `adaptive_horizon` rides along
/// because the horizon cap lives in the lookahead, not the predictor — the
/// controller applies it to its IncrementalLookahead on switch.
struct BanditArm {
  PredictorConfig config;
  bool adaptive_horizon = false;
  std::string label;
};

/// The stock arm set: the full centre × OGD × harvest-failed ablation grid
/// (8 arms) plus one adaptive-horizon variant of the paper default. Index 0
/// is the paper-default configuration, so `arms == 1` degenerates to the
/// ordinary fixed predictor; `BanditOptions::arms` selects a prefix ordered
/// so small prefixes cover the most distinct variants first.
std::vector<BanditArm> default_bandit_arms();

/// Exploration strategy over the arm set.
enum class Explorer : std::uint8_t {
  /// Epsilon-greedy with hyperbolic decay: explore uniformly with
  /// probability epsilon0 / (1 + decay * decisions), else exploit the
  /// lowest-mean-cost arm. The only consumer of the selector's RNG stream.
  EpsilonGreedyDecay = 0,
  /// UCB1 adapted to cost minimization: pick the arm minimizing
  /// mean_i - ucb_c * scale * sqrt(2 ln N / n_i), where `scale` is the
  /// global mean cost per completion (unit-matching the confidence bonus to
  /// the regret signal). Entirely RNG-free.
  Ucb1 = 1,
};

struct BanditOptions {
  /// Number of arms in play: 0 disables the selector entirely (the off
  /// sentinel — byte-identity to every baseline); k > 0 plays the first k
  /// arms of `arm_set` (or of default_bandit_arms() when empty). `arms == 1`
  /// pins the single arm forever: the explorer never switches, so a
  /// single-default-arm selector is byte-identical to selector-off.
  std::uint32_t arms = 0;
  Explorer explorer = Explorer::EpsilonGreedyDecay;
  /// EpsilonGreedyDecay initial exploration probability.
  double epsilon0 = 0.5;
  /// EpsilonGreedyDecay hyperbolic decay rate per decision.
  double decay = 0.15;
  /// Ucb1 confidence width (in units of the global mean cost/completion).
  double ucb_c = 1.0;
  /// Control ticks per decision period. Regret accumulates across the
  /// period; the explorer re-decides (and may switch) at period boundaries
  /// only, so the predictor is never reconfigured mid-interval.
  std::uint32_t switch_period_ticks = 8;
  /// Explorer RNG seed. Callers derive it from the run seed on a dedicated
  /// stream (util::derive_seed) so the selector's draws are independent of
  /// every other stream.
  std::uint64_t seed = 0;
  /// Custom arm set; empty uses default_bandit_arms(). All arms must share
  /// arm 0's input_bucket_rel_tol (groups cannot be re-bucketed on a live
  /// predictor — see TaskPredictor::reconfigure).
  std::vector<BanditArm> arm_set;

  bool enabled() const { return arms > 0; }
};

/// Per-arm observed statistics. A "pull" is one decision period in which at
/// least one completion produced a regret sample; empty periods (no
/// completions) extend the current pull rather than polluting the mean with
/// zero-cost noise.
struct ArmStats {
  std::uint64_t pulls = 0;
  std::uint64_t completions = 0;
  double total_cost = 0.0;

  /// Mean misprediction cost per completed task; the explorer's score.
  double mean_cost() const {
    return completions == 0 ? 0.0
                            : total_cost / static_cast<double>(completions);
  }
};

class BanditSelector {
 public:
  explicit BanditSelector(const BanditOptions& options);

  const BanditArm& arm(std::uint32_t index) const;
  /// The arm currently live on the predictor.
  std::uint32_t current() const { return current_; }

  /// Feeds one control tick's regret: `cost` is the summed
  /// |predicted - actual| execution time over the tick's newly completed
  /// tasks with a counterfactual prediction, `completions` how many such
  /// tasks contributed. Returns true when the period boundary switched the
  /// live arm (the caller must then reconfigure the predictor).
  bool tick(double cost, std::uint32_t completions);

  /// Every period-boundary decision, in order (the replay-determinism
  /// observable: same seed => identical sequence).
  const std::vector<std::uint32_t>& decisions() const { return decisions_; }
  std::uint64_t switches() const { return switches_; }

  const ArmStats& stats(std::uint32_t index) const;
  /// Cumulative misprediction cost across all arms and ticks (including the
  /// not-yet-finalized period) — the bench's headline metric.
  double total_cost() const { return total_cost_; }
  std::uint64_t total_completions() const { return total_completions_; }

  std::size_t state_bytes() const;

 private:
  /// Picks the next period's arm from the finalized statistics.
  std::uint32_t decide();

  BanditOptions options_;
  std::vector<BanditArm> arms_;
  std::vector<ArmStats> stats_;
  util::Rng rng_;
  std::uint32_t current_ = 0;
  std::uint32_t period_ticks_ = 0;
  std::uint32_t period_completions_ = 0;
  double period_cost_ = 0.0;
  double total_cost_ = 0.0;
  std::uint64_t total_completions_ = 0;
  std::uint64_t switches_ = 0;
  std::vector<std::uint32_t> decisions_;
};

}  // namespace wire::predict
