// The WIRE controller: the paper's MAPE loop (Fig. 1).
//
// Each control interval: Monitor (harvest the snapshot through the task
// predictor), Analyze (update the per-stage models), Plan (lookahead
// simulation + resource-steering policy), Execute (return the pool command to
// the cloud API). The controller is a ScalingPolicy, so the same run driver
// executes WIRE and every baseline under identical conditions.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/lookahead.h"
#include "core/lookahead_cache.h"
#include "core/run_state.h"
#include "predict/bandit.h"
#include "predict/estimator.h"
#include "predict/history.h"
#include "predict/memory_predictor.h"
#include "predict/task_predictor.h"
#include "sim/scaling_policy.h"

namespace wire::core {

struct WireOptions {
  predict::PredictorConfig predictor;
  /// Ablation: skip the DAG lookahead; the upcoming load is just the tasks
  /// active right now with their predicted remaining occupancy (degrades
  /// WIRE toward a model-informed reactive policy).
  bool disable_lookahead = false;
  /// Experiment: replace the online predictor with the clairvoyant
  /// OracleEstimator (DAG reference times). Quantifies how much of WIRE's
  /// behaviour is limited by prediction accuracy (§IV-E robustness claim).
  bool oracle_estimator = false;
  /// Experiment: replace the online predictor with a Jockey-style
  /// HistoryEstimator built from this prior run (Observation 2 study).
  /// Shared so a whole experiment matrix can reuse one archive. Takes
  /// precedence below oracle_estimator.
  std::shared_ptr<const std::vector<predict::HistoryRecord>> history;
  /// Improvement over the paper: when the plan calls for growth and
  /// instances are currently draining toward their charge boundary, cancel
  /// drains instead of booting new instances — reclaimed capacity is
  /// instant and its charging unit is already running. Off by default
  /// (fidelity to Algorithm 2); the ablation bench measures it.
  bool reclaim_draining = false;
  /// Incremental Analyze phase (lookahead_cache.h): delta-classified
  /// projection with a revision-validated estimate memo. Steering decisions
  /// are byte-identical with the cache on or off; `enabled = false` is the
  /// ablation knob.
  LookaheadCacheOptions lookahead_cache;
  /// Optional shared Plan scratch arena. When non-null, this controller's
  /// lookahead projects on these buffers instead of its own — the ensemble
  /// path hands N tenant controllers ONE arena (they are stepped strictly
  /// sequentially; see plan_scratch.h for the contract). Null keeps a
  /// per-controller arena. Bit-identical either way.
  std::shared_ptr<PlanScratch> plan_scratch;
  /// Report the projected memory footprint of the upcoming load (sum of
  /// Q_task reservations) as PoolCommand::desired_mem_mb — the second axis
  /// of the multi-tenant demand signal (ensemble memory-aware arbitration).
  /// Off by default: the field stays 0 and every baseline is byte-identical.
  /// No effect when the run's memory dimension is off.
  bool report_memory_demand = false;
  /// Online predictor selection (predict/bandit.h): a seeded bandit over a
  /// small arm set of predictor configurations, scored by per-tick
  /// misprediction regret and switched between control ticks through
  /// TaskPredictor::reconfigure. `bandit.arms == 0` (the default) is the
  /// off sentinel — no selector, no RNG stream, byte-identical to every
  /// baseline. Only meaningful with the online predictor; ignored under
  /// oracle_estimator / history (their estimates have no learned config to
  /// select among).
  predict::BanditOptions bandit;
  /// Crash-aware steering (extension beyond the paper): maintain a
  /// controller-side crash-hazard estimate from the monitoring surface alone
  /// (instance removals the controller did not order, over observed
  /// instance-hours) and inflate Algorithm 3's planned pool so *expected
  /// delivered* capacity under that hazard matches the packed demand (see
  /// steer()). Off by default; on a reliable cloud the estimate stays 0 and
  /// steering is bit-identical either way.
  bool crash_aware_steering = false;
};

/// Per-iteration trace record (consumed by the overhead bench and tests).
struct MapeTrace {
  sim::SimTime now = 0.0;
  std::size_t upcoming_tasks = 0;
  /// Sum of predicted remaining occupancy over Q_task (seconds).
  double upcoming_load_seconds = 0.0;
  /// Algorithm 3's planned pool size p.
  std::uint32_t planned_pool = 0;
  std::uint32_t grow = 0;
  std::uint32_t releases = 0;
  /// Which Analyze path produced the lookahead this tick (kDisabled when the
  /// cache is off, kFirstTick placeholder under disable_lookahead).
  AnalyzePath analyze_path = AnalyzePath::kFirstTick;
  /// True when steering consumed the lookahead's inline Plan stamp
  /// (planned_pool packed during Q_task emission) instead of re-packing.
  bool plan_stamped = false;
};

class WireController final : public sim::ScalingPolicy {
 public:
  explicit WireController(const WireOptions& options = {});

  std::string name() const override {
    if (options_.oracle_estimator) return "wire-oracle";
    if (options_.history) return "wire-history";
    if (options_.bandit.enabled()) return "wire-bandit";
    return "wire";
  }
  void on_run_start(const dag::Workflow& workflow,
                    const sim::CloudConfig& config) override;
  sim::PoolCommand plan(const sim::MonitorSnapshot& snapshot) override;

  /// Observer invoked after every MAPE iteration (optional).
  void set_trace_listener(std::function<void(const MapeTrace&)> listener) {
    trace_listener_ = std::move(listener);
  }

  /// The live estimator (valid between on_run_start and run end).
  const predict::Estimator& estimator() const;

  /// The live online predictor; requires the default (non-oracle) estimator.
  const predict::TaskPredictor& predictor() const;

  /// The incremental lookahead's per-run statistics (path counts, memo
  /// traffic, projection accuracy).
  const LookaheadCacheStats& lookahead_stats() const {
    return lookahead_.stats();
  }

  /// The live memory predictor, or null when the run's memory dimension is
  /// off (valid between on_run_start and run end).
  const predict::MemoryPredictor* memory_predictor() const {
    return memory_.get();
  }

  /// The live bandit selector, or null when `options.bandit` is off (or the
  /// estimator is oracle/history). Valid between on_run_start and run end.
  const predict::BanditSelector* bandit() const { return selector_.get(); }

  /// Controller state footprint in bytes (§IV-F overhead accounting).
  std::size_t state_bytes() const;

 private:
  WireOptions options_;
  const dag::Workflow* workflow_ = nullptr;
  sim::CloudConfig config_;
  std::unique_ptr<predict::Estimator> estimator_;
  /// Non-null iff the estimator is the online TaskPredictor.
  predict::TaskPredictor* online_ = nullptr;
  /// Online predictor selection; non-null iff options_.bandit is enabled
  /// and the estimator is the online predictor.
  std::unique_ptr<predict::BanditSelector> selector_;
  /// Online memory-reservation predictor; constructed iff the run's
  /// MemoryConfig is enabled (null otherwise — the memory dimension then
  /// costs the controller nothing, not even a branch per task).
  std::unique_ptr<predict::MemoryPredictor> memory_;
  /// Incomplete-predecessor counts for the lookahead, kept current in
  /// O(changes) per tick from the snapshot's delta journal.
  RunState run_state_;
  /// Persistent projected-schedule cache (the incremental Analyze phase).
  IncrementalLookahead lookahead_;
  std::function<void(const MapeTrace&)> trace_listener_;
  /// Crash-aware steering state (options_.crash_aware_steering): hazard =
  /// unordered removals / observed instance-hours, both integrated from the
  /// snapshot stream. pending_releases_ matches ordered releases against
  /// later removals so only the provider's own revocations count as crashes.
  double hazard_exposure_hours_ = 0.0;
  std::uint64_t hazard_crashes_ = 0;
  std::uint64_t hazard_pending_releases_ = 0;
  sim::SimTime hazard_mark_ = 0.0;
  /// Algorithm 3's unclamped planned pool from the last plan(). Nothing
  /// reads it; it goes when core.state_bytes stops being checked exactly
  /// (ROADMAP, benchmark revision).
  std::uint32_t last_planned_pool_ = 0;
};

}  // namespace wire::core
