#include "core/lookahead.h"

#include "core/lookahead_impl.h"
#include "predict/memory_predictor.h"

namespace wire::core {

LookaheadResult simulate_interval(const dag::Workflow& workflow,
                                  const sim::MonitorSnapshot& snapshot,
                                  const predict::Estimator& predictor,
                                  const sim::CloudConfig& config,
                                  const RunState* state,
                                  PlanScratch* scratch,
                                  const predict::MemoryPredictor* memory) {
  using dag::TaskId;

  // Incomplete-predecessor counters: copied from the incrementally
  // maintained RunState when available, else seeded from the snapshot.
  std::vector<std::uint32_t> remaining_preds;
  if (state != nullptr && state->ready()) {
    remaining_preds = state->remaining_preds();
  } else {
    count_incomplete_preds(workflow, snapshot, remaining_preds);
  }

  PlanScratch local_scratch;
  PlanScratch& s = scratch != nullptr ? *scratch : local_scratch;
  LookaheadResult result;
  detail::simulate_interval_impl(
      workflow, snapshot, config, remaining_preds, /*undo_log=*/nullptr,
      [&](TaskId task) {
        return predictor.predict_remaining_occupancy(task, snapshot);
      },
      [&](TaskId task) {
        return predictor.transfer_estimate() +
               predictor.estimate_exec(task, snapshot);
      },
      // Memory reservations are predicted live (never memoized) so the
      // incremental lookahead's memo contract is untouched by the memory
      // dimension; with no predictor the lambda is dead code (the impl only
      // calls it when config.memory is on).
      [&](TaskId task) {
        return memory != nullptr ? memory->predict_reservation(task, snapshot)
                                 : 0.0;
      },
      detail::EmissionCap{}, detail::WavefrontCapture{}, s,
      /*plan_capture=*/false, result);
  return result;
}

}  // namespace wire::core
