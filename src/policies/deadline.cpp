#include "policies/deadline.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "core/steering.h"
#include "util/check.h"

namespace wire::policies {

DeadlinePolicy::DeadlinePolicy(
    double deadline_seconds,
    std::shared_ptr<const std::vector<predict::HistoryRecord>> history)
    : deadline_(deadline_seconds), history_(std::move(history)) {
  WIRE_REQUIRE(deadline_ > 0.0, "deadline must be positive");
}

std::string DeadlinePolicy::name() const {
  return std::string(history_ ? "deadline-history-" : "deadline-") +
         std::to_string(static_cast<long>(deadline_));
}

void DeadlinePolicy::on_run_start(const dag::Workflow& workflow,
                                  const sim::CloudConfig& config) {
  workflow_ = &workflow;
  config_ = config;
  if (history_) {
    predictor_ = std::make_unique<predict::HistoryEstimator>(workflow,
                                                             *history_);
    online_ = nullptr;
  } else {
    auto online = std::make_unique<predict::TaskPredictor>(workflow);
    online_ = online.get();
    predictor_ = std::move(online);
  }
}

sim::PoolCommand DeadlinePolicy::plan(const sim::MonitorSnapshot& snapshot) {
  WIRE_REQUIRE(workflow_ != nullptr, "plan before on_run_start");
  predictor_->observe(snapshot);

  // Predicted remaining work (slot-seconds) across all incomplete tasks —
  // running tasks contribute their conservative minimum remainder, unstarted
  // ones their full estimate. With the online predictor, one scope evaluates
  // the stage-wide policies (1-2) once per stage, not once per task.
  std::optional<predict::PredictionScope> scope;
  if (online_ != nullptr) scope.emplace(*online_, snapshot);
  double remaining_work = 0.0;
  std::uint32_t incomplete = 0;
  for (dag::TaskId t = 0; t < workflow_->task_count(); ++t) {
    if (snapshot.tasks[t].phase == sim::TaskPhase::Completed) continue;
    ++incomplete;
    remaining_work +=
        scope ? online_->predict_remaining_occupancy(t, snapshot, &*scope)
              : predictor_->predict_remaining_occupancy(t, snapshot);
  }

  sim::PoolCommand cmd;
  if (incomplete == 0) return cmd;
  const std::uint32_t m = core::stable_pool(snapshot);

  // Budget: capacity usable before the deadline. New instances only start
  // contributing after the provisioning lag, so the effective window for
  // *additional* capacity is one lag shorter. Conservative minimum
  // predictions under-estimate the work, so a 25% safety margin is applied.
  const double time_left = deadline_ - snapshot.now;
  const double window = std::max(config_.lag_seconds, time_left) -
                        config_.lag_seconds;
  // More instances than the incomplete tasks can occupy never help.
  const std::uint32_t useful_cap =
      (incomplete + config_.slots_per_instance - 1) /
      config_.slots_per_instance;
  std::uint32_t p;
  if (window <= 0.0) {
    // Past the point of no return: all hands on deck.
    p = config_.max_instances > 0 ? config_.max_instances : useful_cap;
  } else {
    const double needed_slots = 1.25 * remaining_work / window;
    p = static_cast<std::uint32_t>(std::ceil(
        needed_slots / config_.slots_per_instance));
    p = std::max(p, 1u);
  }
  p = std::min(p, useful_cap);
  if (config_.max_instances > 0) p = std::min(p, config_.max_instances);

  if (p > m) {
    cmd.grow = p - m;
    return cmd;
  }
  if (p >= m) return cmd;

  // Ahead of schedule: release under the steering discipline (Algorithm 2's
  // rule, sunk cost priced at the charge boundary).
  std::vector<core::VictimCandidate> candidates;
  core::release_cheapest(
      snapshot, config_, m, p,
      [&](const sim::InstanceObservation& inst) {
        return core::sunk_cost_at_risk(inst, snapshot, config_,
                                       inst.time_to_next_charge,
                                       /*floor=*/0.0);
      },
      candidates, cmd);
  return cmd;
}

}  // namespace wire::policies
