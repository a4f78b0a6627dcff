// Incremental Analyze phase: a persistent projected-schedule cache that
// consumes each tick's MonitorDelta and re-simulates only with what the
// delta left valid.
//
// Byte-identical steering decisions are the hard contract (Table-I and the
// ensemble baselines are diffed in hexfloat), and that contract forbids the
// naive incremental design of splicing cached floating-point results across
// ticks: "finish = now + max(0, E - elapsed)" recomputed at t1 differs in
// ulps from the t0 value shifted forward, even when mathematically equal.
// What the cache eliminates instead is the dominant cost of the from-scratch
// path — thousands of per-task predictor calls (log() in the input-bucket
// key, map lookups, policy scans) across the projected queue — by memoizing
// execution estimates under a per-stage revision key and re-running the
// shared event-loop skeleton (lookahead_impl.h) on the fresh snapshot. The
// arithmetic is identical by construction; the memo is obliged to return
// bit-equal doubles, which the per-tick differential suite enforces under
// fault chaos.
//
// The delta classification decides, per tick, whether the memo can be
// trusted wholesale or the cache should fall back to direct predictor calls
// (bit-identical to the lambdas simulate_interval uses; both paths share one
// per-tick predict::PredictionScope for the stage-wide policies 1-2):
//
//   kFirstTick      first projection of a run — nothing cached yet.
//   kNonExactDelta  coalesced/dropout or hand-built snapshot — the journal
//                   does not cover the interval, so nothing can be matched
//                   against the previous projection.
//   kPoolChanged    an instance lifecycle changed (boot completed, drain,
//                   revocation notice, add/remove) — the wavefront's slot
//                   topology moved, and such ticks also batch task churn.
//   kRefitDrift     the predictor refit more stages this tick than the
//                   configured threshold — the memo is mostly cold anyway.
//   kMisprediction  a task completed that the previous projection did not
//                   predict (actual beat the conservative minimum) —
//                   optional, on by default.
//   kIncremental    the fast path: memoized estimates.
//
// Dispatch drift (a task observed Running that the previous projection had
// queued elsewhere) is counted but does not trigger fallback by default: the
// event loop reads true placements from the fresh snapshot, so drift is
// harmless to the outputs — §III-D makes the same argument for the paper's
// controller.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/lookahead.h"
#include "core/plan_scratch.h"
#include "core/run_state.h"
#include "predict/estimator.h"
#include "predict/task_predictor.h"
#include "sim/config.h"
#include "sim/monitor.h"

namespace wire::predict {
class MemoryPredictor;
}

namespace wire::core {

/// Which path produced this tick's lookahead (see taxonomy above).
enum class AnalyzePath : std::uint8_t {
  kIncremental = 0,
  kFirstTick,
  kNonExactDelta,
  kPoolChanged,
  kRefitDrift,
  kMisprediction,
  kDisabled,
};
inline constexpr std::size_t kAnalyzePathCount = 7;

const char* analyze_path_label(AnalyzePath path);

struct LookaheadCacheOptions {
  /// Master switch; off reproduces the pre-cache controller exactly (every
  /// tick classified kDisabled, direct predictor calls).
  bool enabled = true;
  /// Fall back when more than this many stages refit in one observe() — the
  /// memo is mostly invalid and revalidating it per task costs more than the
  /// direct calls it saves.
  std::uint32_t refit_fallback_stages = 8;
  /// Independently ablatable lever: adaptive horizon capping. Stops
  /// emitting queue-tail entries once Algorithm 3's pool size provably
  /// saturates the binding instance ceiling (see detail::EmissionCap for the
  /// bound). Steering decisions are unchanged; the unclamped demand signal
  /// (PoolCommand::desired_pool) saturates at >= the ceiling instead of
  /// being exact, so this defaults off and must stay off for multi-tenant
  /// runs whose arbiter consumes that signal.
  bool adaptive_horizon = false;
  /// Plan-phase incrementality: on quiet (kIncremental) ticks, stamp the
  /// projected wavefront with per-entry deadline/start annotations and pack
  /// the Algorithm-3 pool size inline during Q_task emission, so steer()
  /// consumes the stamp instead of rebuilding and re-packing the occupancy
  /// vector. Shares the Analyze cache's classification verbatim — ONE
  /// classify() per tick decides both caches, so the Plan stamp can never
  /// lag the Analyze path by a revision. Fallback ticks (first-tick,
  /// non-exact, pool-changed, refit, misprediction, disabled) leave
  /// plan_valid unset and steering takes its from-scratch path; decisions
  /// are bit-identical either way (same Alg3Packer, same clamped doubles,
  /// same order).
  bool plan_stamps = true;
};

struct LookaheadCacheStats {
  std::uint64_t ticks = 0;
  /// Ticks per classification outcome, indexed by AnalyzePath.
  std::uint64_t by_path[kAnalyzePathCount] = {};
  /// Exec-estimate memo traffic on fast-path ticks.
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  /// Delta completions that matched / beat the previous projection, and
  /// newly Running tasks the previous projection never put on a slot
  /// (counted against the wavefront stamps on every primed, exact-delta
  /// tick, the same pass that raises kMisprediction).
  std::uint64_t matched_completions = 0;
  std::uint64_t mispredicted_completions = 0;
  std::uint64_t drifted_dispatches = 0;
  /// Adaptive-horizon activity.
  std::uint64_t truncated_tasks = 0;
  std::uint64_t capped_ticks = 0;
  /// Ticks whose result carried a valid Plan stamp (steering consumed
  /// planned_pool directly instead of re-packing Q_task).
  std::uint64_t stamped_plan_ticks = 0;
};

/// The persistent projected-schedule object owned by WireController. One
/// instance per run; reset() rebinds it (on_run_start).
class IncrementalLookahead {
 public:
  explicit IncrementalLookahead(const LookaheadCacheOptions& options = {});

  /// Drops all cached state and sizes the memo for `workflow`.
  void reset(const dag::Workflow& workflow);

  /// Produces this tick's LookaheadResult. `online` is the TaskPredictor
  /// when the estimator is the online one (enables the exec-estimate memo),
  /// null otherwise (oracle/history: direct calls either way — their
  /// estimates are already O(1)). `state`, when ready, lends its
  /// incomplete-predecessor counters for the projection (undo-logged, never
  /// left modified). `memory`, when non-null with config.memory enabled,
  /// makes the projection memory-aware; its reservations are predicted LIVE
  /// on both the incremental and the fallback path (never memoized — O(1)
  /// per call), so the memo/classification contract is untouched and the
  /// incremental result stays bit-equal to the memory-aware from-scratch
  /// reference. The returned reference is valid until the next tick().
  const LookaheadResult& tick(const dag::Workflow& workflow,
                              const sim::MonitorSnapshot& snapshot,
                              const predict::Estimator& estimator,
                              const predict::TaskPredictor* online,
                              const sim::CloudConfig& config,
                              RunState* state,
                              const predict::MemoryPredictor* memory =
                                  nullptr);

  AnalyzePath last_path() const { return last_path_; }
  const LookaheadCacheStats& stats() const { return stats_; }

  /// Flips the adaptive-horizon lever between ticks (the BanditSelector
  /// arm-switch hook — arms may differ in horizon capping). Safe mid-run:
  /// the cap only truncates queue-tail emission; the exec/occupancy memos
  /// key on predictor revisions and never depend on it. A truncated
  /// projection stamps a smaller wavefront, which can only make the next
  /// classification more conservative (more fallbacks, never stale reuse).
  void set_adaptive_horizon(bool enabled) {
    options_.adaptive_horizon = enabled;
  }

  /// The Plan scratch arena the projection runs on. Owned (constructed
  /// per-lookahead) by default; set_scratch() rebinds to a shared arena so
  /// N tenant controllers stepped sequentially reuse ONE set of buffers
  /// (see plan_scratch.h for the serialization contract). Never null.
  const std::shared_ptr<PlanScratch>& scratch() const { return scratch_; }
  void set_scratch(std::shared_ptr<PlanScratch> scratch) {
    if (scratch != nullptr) scratch_ = std::move(scratch);
  }

  /// Resident footprint in bytes (§IV-F overhead accounting). Excludes the
  /// scratch arena, which may be shared across controllers — charge
  /// PlanScratch::state_bytes() once per arena, not per lookahead.
  std::size_t state_bytes() const;

 private:
  struct MemoEntry {
    double exec = 0.0;
    std::uint64_t stage_revision = 0;
    bool ready_class = false;
    bool valid = false;
  };

  /// Composed remaining occupancy (transfer + exec), valid only for
  /// non-Running tasks: their occupancy is a pure function of the exec
  /// estimate, the global transfer estimate and the task's readiness class.
  /// Running tasks subtract wall-clock progress — never stored. Validation
  /// is delta-driven rather than re-derived per query: every tick clears the
  /// entries of delta.phase_changed tasks (the journal lists every lifecycle
  /// transition) and bumps a generation counter when the model revision
  /// moved or the delta is not exact. A surviving key therefore proves the
  /// phase, the stage model and the transfer estimate are all unchanged
  /// since the value was stored — the hit path is one 16-byte load and one
  /// compare, with no TaskObservation access. That matters: the queue-tail
  /// emission touches one of these per Q_task entry and the loop is
  /// memory-bound.
  struct OccupancyMemo {
    double occupancy = 0.0;
    /// (occ_generation_ << 1) | 1 at store time; 0 = invalid.
    std::uint64_t key = 0;
  };

  AnalyzePath classify(const sim::MonitorSnapshot& snapshot,
                       const predict::Estimator& estimator,
                       const predict::TaskPredictor* online,
                       bool saw_misprediction) const;

  /// Revision-validated execution estimate: bit-equal to
  /// predict_exec(task).exec_seconds by construction (the stored double is
  /// the value a direct call returned, and policies 3-5 are pure functions
  /// of the memo key). Policies 1-2 depend on wall time and peer dispatches
  /// that no revision tracks, so they are never stored across ticks; within
  /// a tick `scope` evaluates them once per stage.
  double memo_exec(const dag::Workflow& workflow,
                   const predict::TaskPredictor& online, dag::TaskId task,
                   const sim::MonitorSnapshot& snapshot,
                   predict::PredictionScope& scope);

  /// Revision-validated remaining occupancy: the stored double is the value
  /// remaining_occupancy_with returned for the same (exec, observation)
  /// inputs, so returning it is bit-equal to recomputing. Falls back to
  /// memo_exec + composition for Running/Completed tasks.
  double memo_occupancy(const dag::Workflow& workflow,
                        const predict::TaskPredictor& online, dag::TaskId task,
                        const sim::MonitorSnapshot& snapshot,
                        predict::PredictionScope& scope);

  LookaheadCacheOptions options_;
  LookaheadCacheStats stats_;
  LookaheadResult result_;
  AnalyzePath last_path_ = AnalyzePath::kFirstTick;
  bool primed_ = false;
  std::uint64_t last_revision_ = 0;

  std::vector<MemoEntry> memo_;
  std::vector<OccupancyMemo> occ_memo_;
  /// Occupancy-memo generation: bumped whenever the estimator revision moves
  /// or a tick's delta is not exact (bulk invalidation without an O(V)
  /// clear). occ_key_ is the generation encoded as a valid OccupancyMemo key
  /// for the current tick.
  std::uint64_t occ_generation_ = 0;
  std::uint64_t occ_key_ = 1;
  std::uint64_t last_occ_revision_ = 0;
  /// Previous projection's wavefront, stamp-encoded (== epoch_) to avoid an
  /// O(V) clear per tick.
  std::vector<std::uint64_t> projected_complete_stamp_;
  std::vector<std::uint64_t> projected_running_stamp_;
  std::uint64_t epoch_ = 0;

  /// Per-tick scratch arena (projection event loop, wavefront capture, undo
  /// log), reused across ticks — and, when rebound via set_scratch(), shared
  /// across tenant lookaheads. Never null.
  std::shared_ptr<PlanScratch> scratch_;
};

}  // namespace wire::core
