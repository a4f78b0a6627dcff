#include "core/controller.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/steering.h"
#include "predict/oracle.h"
#include "util/check.h"

namespace wire::core {

WireController::WireController(const WireOptions& options)
    : options_(options), lookahead_(options.lookahead_cache) {
  lookahead_.set_scratch(options_.plan_scratch);
}

void WireController::on_run_start(const dag::Workflow& workflow,
                                  const sim::CloudConfig& config) {
  workflow_ = &workflow;
  config_ = config;
  selector_.reset();
  if (options_.oracle_estimator) {
    estimator_ = std::make_unique<predict::OracleEstimator>(
        workflow, config.variability.transfer_latency_seconds,
        config.variability.bandwidth_mb_per_s);
    online_ = nullptr;
  } else if (options_.history) {
    estimator_ =
        std::make_unique<predict::HistoryEstimator>(workflow,
                                                    *options_.history);
    online_ = nullptr;
  } else {
    // With the selector enabled, the initial arm's configuration IS the
    // predictor configuration — the arm set owns the knob from the first
    // tick (options_.predictor only seeds the selector-off path).
    if (options_.bandit.enabled()) {
      selector_ = std::make_unique<predict::BanditSelector>(options_.bandit);
    }
    auto online = std::make_unique<predict::TaskPredictor>(
        workflow, selector_ ? selector_->arm(selector_->current()).config
                            : options_.predictor);
    online_ = online.get();
    estimator_ = std::move(online);
  }
  lookahead_.set_adaptive_horizon(
      selector_ ? selector_->arm(selector_->current()).adaptive_horizon
                : options_.lookahead_cache.adaptive_horizon);
  // The memory predictor exists only when the run models memory at all; a
  // memory-off run keeps the pointer null so plan() pays nothing for the
  // second resource dimension (and stays byte-identical to pre-memory).
  memory_ = config.memory.enabled()
                ? std::make_unique<predict::MemoryPredictor>(
                      workflow, config.memory, config.slots_per_instance)
                : nullptr;
  run_state_.reset();
  lookahead_.reset(workflow);
  hazard_exposure_hours_ = 0.0;
  hazard_crashes_ = 0;
  hazard_pending_releases_ = 0;
  hazard_mark_ = 0.0;
  last_planned_pool_ = 0;
}

const predict::Estimator& WireController::estimator() const {
  WIRE_REQUIRE(estimator_ != nullptr, "no active run");
  return *estimator_;
}

const predict::TaskPredictor& WireController::predictor() const {
  WIRE_REQUIRE(online_ != nullptr,
               "no active run with the online predictor");
  return *online_;
}

sim::PoolCommand WireController::plan(const sim::MonitorSnapshot& snapshot) {
  WIRE_REQUIRE(workflow_ != nullptr, "plan before on_run_start");

  // Predictor selection: score the live arm on this interval's completions
  // BEFORE the harvest below ingests them, so |predicted - actual| is a
  // genuine out-of-sample regret (after observe() the predictor has already
  // absorbed the very samples it would be judged on). Arm switches land
  // between the regret read and the harvest: the new arm starts learning
  // from this interval's data under its own configuration.
  if (selector_) {
    double cost = 0.0;
    std::uint32_t scored = 0;
    if (snapshot.delta.exact) {
      for (dag::TaskId task : snapshot.delta.completed) {
        double predicted = 0.0;
        if (online_->counterfactual_exec(task, &predicted)) {
          cost += std::abs(predicted - snapshot.tasks[task].exec_time);
          ++scored;
        }
      }
    }
    if (selector_->tick(cost, scored)) {
      const predict::BanditArm& arm = selector_->arm(selector_->current());
      online_->reconfigure(arm.config);
      lookahead_.set_adaptive_horizon(arm.adaptive_horizon);
    }
  }

  // Monitor + Analyze: harvest the interval's data, refresh the models.
  estimator_->observe(snapshot);
  if (memory_) memory_->observe(snapshot);

  // Plan: project the upcoming load.
  LookaheadResult ablation_scratch;
  const LookaheadResult* lookahead = &ablation_scratch;
  AnalyzePath analyze_path = AnalyzePath::kFirstTick;
  if (options_.disable_lookahead) {
    // Ablation: no DAG projection — only the tasks active right now. With
    // the memory dimension on, entries still carry their reservations so
    // the memory-aware Algorithm 3 packs the same constraint the
    // dispatcher enforces. With the online predictor, one scope evaluates
    // the stage-wide policies (1-2) once per stage for the whole pass.
    std::optional<predict::PredictionScope> scope;
    if (online_ != nullptr) scope.emplace(*online_, snapshot);
    const auto occupancy = [&](dag::TaskId task) {
      return scope ? online_->predict_remaining_occupancy(task, snapshot,
                                                          &*scope)
                   : estimator_->predict_remaining_occupancy(task, snapshot);
    };
    for (const sim::InstanceObservation& inst : snapshot.instances) {
      for (dag::TaskId task : inst.running_tasks) {
        ablation_scratch.upcoming.push_back(UpcomingTask{
            occupancy(task), task, /*on_slot=*/true,
            memory_ ? memory_->predict_reservation(task, snapshot) : 0.0});
        auto [it, inserted] =
            ablation_scratch.restart_cost.try_emplace(inst.id, 0.0);
        it->second = std::max(it->second, snapshot.tasks[task].elapsed);
      }
    }
    for (dag::TaskId task : snapshot.ready_queue) {
      ablation_scratch.upcoming.push_back(UpcomingTask{
          occupancy(task), task, /*on_slot=*/false,
          memory_ ? memory_->predict_reservation(task, snapshot) : 0.0});
    }
  } else {
    run_state_.update(*workflow_, snapshot);
    lookahead = &lookahead_.tick(*workflow_, snapshot, *estimator_, online_,
                                 config_, &run_state_, memory_.get());
    analyze_path = lookahead_.last_path();
  }

  // Crash-aware steering: refresh the controller-side hazard estimate from
  // what the monitoring surface shows — exposure from the live instance rows,
  // crashes as the removals the controller never ordered.
  double hazard_per_hour = 0.0;
  if (options_.crash_aware_steering) {
    double exposed = 0.0;
    for (const sim::InstanceObservation& inst : snapshot.instances) {
      if (!inst.provisioning) exposed += 1.0;
    }
    hazard_exposure_hours_ += exposed * (snapshot.now - hazard_mark_) / 3600.0;
    hazard_mark_ = snapshot.now;
    if (snapshot.delta.exact) {
      // Ordered releases (immediate kills, drains, boot cancels) surface as
      // removals in a later delta; match them first so only the provider's
      // own revocations count as crashes. A dropout tick's non-exact delta
      // is skipped — its removals coalesce into the next exact one.
      const std::uint64_t removed = snapshot.delta.instances_removed.size();
      const std::uint64_t ordered = std::min(hazard_pending_releases_, removed);
      hazard_crashes_ += removed - ordered;
      hazard_pending_releases_ -= ordered;
    }
    if (hazard_exposure_hours_ > 0.0) {
      hazard_per_hour =
          static_cast<double>(hazard_crashes_) / hazard_exposure_hours_;
    }
  }

  // Plan + Execute: steer the pool (on the lookahead's scratch arena, which
  // also covers the ablation path — its buffers are free between ticks).
  std::uint32_t planned = 0;
  sim::PoolCommand cmd = steer(*lookahead, snapshot, config_, &planned,
                               options_.reclaim_draining,
                               lookahead_.scratch().get(), hazard_per_hour);
  last_planned_pool_ = planned;
  if (options_.crash_aware_steering) {
    hazard_pending_releases_ += cmd.releases.size();
  }

  if (memory_ && options_.report_memory_demand) {
    // The projected footprint of the *concurrent wave* — the Q_task prefix
    // that would actually co-reside at the planned pool size (Q_task is
    // emitted in projected start order, so its first planned * slots entries
    // are the wavefront). Summing the whole queue instead over-claims badly
    // under demand-weighted arbitration: tasks that run serially behind the
    // wave never reserve memory at the same time, and bidding their sum
    // starves the other tenants for capacity this job cannot use (the
    // bench_ensemble memory-bid study measured 3.90x tight-provisioning
    // slowdown for the whole-queue signal vs 1.32x per-wave). Purely advisory
    // (the engine never acts on it); the ensemble arbiter converts it to an
    // instance-count bid.
    const std::size_t wave =
        std::min(lookahead->upcoming.size(),
                 static_cast<std::size_t>(planned) *
                     static_cast<std::size_t>(config_.slots_per_instance));
    double mem = 0.0;
    for (std::size_t i = 0; i < wave; ++i) {
      mem += lookahead->upcoming[i].mem_mb;
    }
    cmd.desired_mem_mb = mem;
  }

  if (trace_listener_) {
    MapeTrace trace;
    trace.now = snapshot.now;
    trace.upcoming_tasks = lookahead->upcoming.size();
    for (const UpcomingTask& t : lookahead->upcoming) {
      trace.upcoming_load_seconds += t.remaining_occupancy;
    }
    trace.planned_pool = planned;
    trace.grow = cmd.grow;
    trace.releases = static_cast<std::uint32_t>(cmd.releases.size());
    trace.analyze_path = analyze_path;
    trace.plan_stamped = lookahead->plan_valid;
    trace_listener_(trace);
  }
  return cmd;
}

std::size_t WireController::state_bytes() const {
  std::size_t bytes = sizeof(*this);
  if (estimator_) bytes += estimator_->state_bytes();
  if (memory_) bytes += memory_->state_bytes();
  if (selector_) bytes += selector_->state_bytes();
  // RunState: one counter plus one completion flag per task.
  bytes += run_state_.remaining_preds().capacity() *
           (sizeof(std::uint32_t) + sizeof(char));
  bytes += lookahead_.state_bytes();
  // The Plan scratch arena is charged here only when this controller owns
  // it; a shared (ensemble) arena is charged once by its owner, not once
  // per tenant.
  if (!options_.plan_scratch) bytes += lookahead_.scratch()->state_bytes();
  return bytes;
}

}  // namespace wire::core
