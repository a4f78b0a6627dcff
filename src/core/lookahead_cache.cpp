#include "core/lookahead_cache.h"

#include "core/lookahead_impl.h"
#include "predict/memory_predictor.h"
#include "util/check.h"

namespace wire::core {

using dag::TaskId;
using sim::TaskPhase;

const char* analyze_path_label(AnalyzePath path) {
  switch (path) {
    case AnalyzePath::kIncremental:
      return "incremental";
    case AnalyzePath::kFirstTick:
      return "first-tick";
    case AnalyzePath::kNonExactDelta:
      return "non-exact-delta";
    case AnalyzePath::kPoolChanged:
      return "pool-changed";
    case AnalyzePath::kRefitDrift:
      return "refit-drift";
    case AnalyzePath::kMisprediction:
      return "misprediction";
    case AnalyzePath::kDisabled:
      return "disabled";
  }
  return "unknown";
}

IncrementalLookahead::IncrementalLookahead(const LookaheadCacheOptions& options)
    : options_(options), scratch_(std::make_shared<PlanScratch>()) {}

void IncrementalLookahead::reset(const dag::Workflow& workflow) {
  const std::size_t n = workflow.task_count();
  stats_ = LookaheadCacheStats{};
  result_ = LookaheadResult{};
  last_path_ = AnalyzePath::kFirstTick;
  primed_ = false;
  last_revision_ = 0;
  memo_.assign(n, MemoEntry{});
  occ_memo_.assign(n, OccupancyMemo{});
  occ_generation_ = 0;
  occ_key_ = 1;
  last_occ_revision_ = 0;
  projected_complete_stamp_.assign(n, 0);
  projected_running_stamp_.assign(n, 0);
  epoch_ = 0;
}

AnalyzePath IncrementalLookahead::classify(
    const sim::MonitorSnapshot& snapshot, const predict::Estimator& estimator,
    const predict::TaskPredictor* online, bool saw_misprediction) const {
  if (!options_.enabled) return AnalyzePath::kDisabled;
  if (!primed_) return AnalyzePath::kFirstTick;
  const sim::MonitorDelta& delta = snapshot.delta;
  if (!delta.exact) return AnalyzePath::kNonExactDelta;
  if (!delta.instances_changed.empty()) return AnalyzePath::kPoolChanged;
  // Estimators without per-stage revisions (none today) are treated as one
  // big stage: any revision movement counts as drift past the threshold.
  const std::uint32_t refits =
      online != nullptr
          ? online->last_refit_stages()
          : (estimator.revision() != last_revision_
                 ? options_.refit_fallback_stages + 1
                 : 0);
  if (refits > options_.refit_fallback_stages) return AnalyzePath::kRefitDrift;
  // `saw_misprediction` is the single wavefront-vs-delta pass in tick() —
  // classification no longer re-scans delta.completed on every quiet tick.
  return saw_misprediction ? AnalyzePath::kMisprediction
                           : AnalyzePath::kIncremental;
}

double IncrementalLookahead::memo_exec(const dag::Workflow& workflow,
                                       const predict::TaskPredictor& online,
                                       TaskId task,
                                       const sim::MonitorSnapshot& snapshot,
                                       predict::PredictionScope& scope) {
  const sim::TaskObservation& obs = snapshot.tasks[task];
  if (obs.phase == TaskPhase::Completed) {
    // The lookahead never asks about completed tasks; defensive passthrough.
    return online.predict_exec(task, snapshot, &scope).exec_seconds;
  }
  const std::uint64_t revision =
      online.stage_revision(workflow.task(task).stage);
  const bool ready_class =
      obs.phase == TaskPhase::Ready || obs.phase == TaskPhase::Running;
  MemoEntry& entry = memo_[task];
  if (entry.valid && entry.stage_revision == revision &&
      entry.ready_class == ready_class) {
    ++stats_.memo_hits;
    return entry.exec;
  }
  ++stats_.memo_misses;
  const predict::Prediction pred = online.predict_exec(task, snapshot, &scope);
  if (pred.policy == predict::Policy::CompletedNotReady ||
      pred.policy == predict::Policy::CompletedKnownSize ||
      pred.policy == predict::Policy::CompletedNewSize) {
    entry.exec = pred.exec_seconds;
    entry.stage_revision = revision;
    entry.ready_class = ready_class;
    entry.valid = true;
  } else {
    // Policies 1-2: wall-time / peer-dispatch dependent, never cached across
    // ticks (the tick's scope evaluates them once per stage).
    entry.valid = false;
  }
  return pred.exec_seconds;
}

double IncrementalLookahead::memo_occupancy(
    const dag::Workflow& workflow, const predict::TaskPredictor& online,
    TaskId task, const sim::MonitorSnapshot& snapshot,
    predict::PredictionScope& scope) {
  OccupancyMemo& entry = occ_memo_[task];
  // A key surviving to the current generation proves (see OccupancyMemo)
  // that the task's phase, its stage model and the transfer estimate are
  // all unchanged since the value was stored, so recomputing would repeat
  // the identical arithmetic. No observation load on this path.
  if (entry.key == occ_key_) {
    ++stats_.memo_hits;
    return entry.occupancy;
  }
  const sim::TaskObservation& obs = snapshot.tasks[task];
  if (obs.phase == TaskPhase::Ready || obs.phase == TaskPhase::Pending) {
    const double occ = online.remaining_occupancy_with(
        memo_exec(workflow, online, task, snapshot, scope), obs);
    // memo_exec just validated the exec-level entry for this task; the
    // composed value is only storable when the exec estimate was (policies
    // 1-2 are never cached across ticks, and neither are their
    // compositions).
    entry.occupancy = occ;
    entry.key = memo_[task].valid ? occ_key_ : 0;
    return occ;
  }
  // Running (wall-clock-dependent remainder) and Completed (zero): compose
  // from the exec estimate every time.
  return online.remaining_occupancy_with(
      memo_exec(workflow, online, task, snapshot, scope), obs);
}

const LookaheadResult& IncrementalLookahead::tick(
    const dag::Workflow& workflow, const sim::MonitorSnapshot& snapshot,
    const predict::Estimator& estimator, const predict::TaskPredictor* online,
    const sim::CloudConfig& config, RunState* state,
    const predict::MemoryPredictor* memory) {
  ++stats_.ticks;

  // The single wavefront-vs-delta pass: projection-accuracy accounting and
  // the misprediction signal classification consumes (the classifier used to
  // re-scan delta.completed itself — one pass now serves both).
  bool saw_misprediction = false;
  if (primed_ && snapshot.delta.exact) {
    for (TaskId t : snapshot.delta.completed) {
      if (projected_complete_stamp_[t] == epoch_) {
        ++stats_.matched_completions;
      } else {
        ++stats_.mispredicted_completions;
        saw_misprediction = true;
      }
    }
    for (TaskId t : snapshot.delta.phase_changed) {
      if (snapshot.tasks[t].phase == TaskPhase::Running &&
          projected_running_stamp_[t] != epoch_) {
        ++stats_.drifted_dispatches;
      }
    }
  }

  last_path_ = classify(snapshot, estimator, online, saw_misprediction);
  stats_.by_path[static_cast<std::size_t>(last_path_)] += 1;

  // Occupancy-memo invalidation (see OccupancyMemo): exact deltas name every
  // task whose lifecycle phase moved — clearing just those entries keeps the
  // rest provably current. Anything that invalidates entries wholesale (a
  // model revision movement, a non-exact delta) bumps the generation
  // instead, which orphans every stored key at once without an O(V) sweep.
  if (options_.enabled) {
    if (snapshot.delta.exact) {
      for (TaskId t : snapshot.delta.phase_changed) {
        occ_memo_[t].key = 0;
      }
    } else {
      ++occ_generation_;
    }
    if (estimator.revision() != last_occ_revision_) {
      ++occ_generation_;
      last_occ_revision_ = estimator.revision();
    }
    occ_key_ = (occ_generation_ << 1) | 1u;
  }

  // Predecessor counters: borrow the RunState's vector with an undo log
  // (O(projected firings) restore) when it is current, else seed a local
  // copy with the same count_incomplete_preds simulate_interval uses.
  PlanScratch& scratch = *scratch_;
  scratch.undo.clear();
  std::vector<std::uint32_t>* preds = nullptr;
  std::vector<TaskId>* undo_log = nullptr;
  if (state != nullptr && state->ready()) {
    preds = &state->speculative_preds();
    undo_log = &scratch.undo;
  } else {
    count_incomplete_preds(workflow, snapshot, scratch.local_preds);
    preds = &scratch.local_preds;
  }

  scratch.projected_complete.clear();
  scratch.projected_running.clear();
  detail::WavefrontCapture capture;
  capture.projected_complete = &scratch.projected_complete;
  capture.projected_running = &scratch.projected_running;

  detail::EmissionCap cap;
  if (options_.adaptive_horizon &&
      snapshot.pool_cap != sim::kNoInstanceCap) {
    cap.enabled = true;
    cap.target_pool = snapshot.pool_cap;
  }

  // Plan stamping rides the SAME classification that just picked the
  // Analyze path — one classify() per tick decides both caches (satellite
  // of the same invalidation contract, and the reason the stamp can never
  // lag the Analyze side by a revision).
  const bool plan_capture = options_.plan_stamps &&
                            last_path_ == AnalyzePath::kIncremental &&
                            online != nullptr;

  // Memory reservations are predicted live on BOTH paths (never memoized):
  // the sizing is O(1) per call, and sharing the one lambda is what makes
  // the incremental projection trivially bit-equal to the memory-aware
  // from-scratch reference on the memory axis.
  const auto mem_of = [&](TaskId task) {
    return memory != nullptr ? memory->predict_reservation(task, snapshot)
                             : 0.0;
  };

  if (online != nullptr) {
    // Every estimate this tick is made against one snapshot at one predictor
    // revision, so one scope serves both paths: the stage-wide policies
    // (1-2) scan a stage's peers once per tick instead of once per queued
    // task. Bit-identical to the unscoped calls simulate_interval makes.
    predict::PredictionScope scope(*online, snapshot);
    if (last_path_ == AnalyzePath::kIncremental) {
      detail::simulate_interval_impl(
          workflow, snapshot, config, *preds, undo_log,
          [&](TaskId task) {
            return memo_occupancy(workflow, *online, task, snapshot, scope);
          },
          [&](TaskId task) {
            return online->transfer_estimate() +
                   memo_exec(workflow, *online, task, snapshot, scope);
          },
          mem_of, cap, capture, scratch, plan_capture, result_);
    } else {
      // Fallback: direct predictor calls, composed exactly as the
      // Estimator interface composes them.
      detail::simulate_interval_impl(
          workflow, snapshot, config, *preds, undo_log,
          [&](TaskId task) {
            return online->predict_remaining_occupancy(task, snapshot,
                                                       &scope);
          },
          [&](TaskId task) {
            return online->transfer_estimate() +
                   online->predict_exec(task, snapshot, &scope).exec_seconds;
          },
          mem_of, cap, capture, scratch, /*plan_capture=*/false, result_);
    }
  } else {
    // No online predictor (oracle/history): the exact occupancy lambdas
    // simulate_interval uses.
    detail::simulate_interval_impl(
        workflow, snapshot, config, *preds, undo_log,
        [&](TaskId task) {
          return estimator.predict_remaining_occupancy(task, snapshot);
        },
        [&](TaskId task) {
          return estimator.transfer_estimate() +
                 estimator.estimate_exec(task, snapshot);
        },
        mem_of, cap, capture, scratch, /*plan_capture=*/false, result_);
  }

  if (undo_log != nullptr) {
    for (TaskId t : scratch.undo) ++(*preds)[t];
  }

  ++epoch_;
  for (TaskId t : scratch.projected_complete) {
    projected_complete_stamp_[t] = epoch_;
  }
  for (TaskId t : scratch.projected_running) {
    projected_running_stamp_[t] = epoch_;
  }
  primed_ = true;
  last_revision_ = estimator.revision();

  stats_.truncated_tasks += result_.truncated_tasks;
  if (result_.truncated_tasks > 0) ++stats_.capped_ticks;
  if (result_.plan_valid) ++stats_.stamped_plan_ticks;
  return result_;
}

std::size_t IncrementalLookahead::state_bytes() const {
  const auto vec = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
  std::size_t bytes = sizeof(*this);
  bytes += vec(memo_) + vec(occ_memo_) + vec(projected_complete_stamp_) +
           vec(projected_running_stamp_);
  bytes += vec(result_.upcoming) + vec(result_.stamps);
  bytes += result_.restart_cost.size() *
           (sizeof(sim::InstanceId) + sizeof(double));
  return bytes;
}

}  // namespace wire::core
