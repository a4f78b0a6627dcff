// Custom policy: extending the library with your own autoscaler.
//
//   $ ./examples/custom_policy
//
// Shows the two extension points a downstream user has:
//   1. Implement sim::ScalingPolicy directly (full control, here a simple
//      hysteresis autoscaler), and
//   2. Compose the WIRE building blocks (TaskPredictor + lookahead +
//      Algorithm 3) with a custom steering rule.
// Both are compared against stock WIRE on a random layered DAG.
#include <algorithm>
#include <cstdio>

#include "core/controller.h"
#include "core/lookahead.h"
#include "core/steering.h"
#include "exp/settings.h"
#include "predict/task_predictor.h"
#include "rejected_input.h"
#include "sim/driver.h"
#include "workload/generators.h"

namespace {

using namespace wire;

/// Extension point 1: a from-scratch policy. Grows by one instance when the
/// ready queue is non-empty, releases idle instances at charge boundaries.
/// No prediction, no DAG knowledge — a deliberately simple strawman.
class HysteresisPolicy final : public sim::ScalingPolicy {
 public:
  std::string name() const override { return "hysteresis"; }

  void on_run_start(const dag::Workflow&, const sim::CloudConfig& config)
      override {
    config_ = config;
  }

  sim::PoolCommand plan(const sim::MonitorSnapshot& snapshot) override {
    sim::PoolCommand cmd;
    if (!snapshot.ready_queue.empty()) {
      cmd.grow = 1;
      return cmd;
    }
    for (const sim::InstanceObservation& inst : snapshot.instances) {
      if (!inst.provisioning && !inst.draining &&
          inst.running_tasks.empty() &&
          inst.time_to_next_charge <= config_.lag_seconds &&
          snapshot.instances.size() > 1) {
        cmd.releases.push_back(sim::Release{inst.id, true});
      }
    }
    return cmd;
  }

 private:
  sim::CloudConfig config_;
};

/// Extension point 2: reuse WIRE's predictor and lookahead, but steer with a
/// custom rule — here a "turbo" variant that doubles Algorithm 3's plan
/// (trading cost for speed), illustrating the paper's remark that "it is
/// possible to modulate the aggressiveness of the heuristic".
class TurboWire final : public sim::ScalingPolicy {
 public:
  std::string name() const override { return "turbo-wire"; }

  void on_run_start(const dag::Workflow& workflow,
                    const sim::CloudConfig& config) override {
    workflow_ = &workflow;
    config_ = config;
    predictor_ = std::make_unique<predict::TaskPredictor>(workflow);
  }

  sim::PoolCommand plan(const sim::MonitorSnapshot& snapshot) override {
    predictor_->observe(snapshot);
    const core::LookaheadResult lookahead =
        core::simulate_interval(*workflow_, snapshot, *predictor_, config_);

    std::vector<double> occupancy;
    for (const core::UpcomingTask& t : lookahead.upcoming) {
      occupancy.push_back(t.on_slot ? std::max(t.remaining_occupancy,
                                               config_.charging_unit_seconds)
                                    : t.remaining_occupancy);
    }
    const std::uint32_t planned =
        2 * core::resize_pool(occupancy, config_.charging_unit_seconds,
                              config_.slots_per_instance);

    std::uint32_t live = 0;
    for (const sim::InstanceObservation& inst : snapshot.instances) {
      if (!inst.draining) ++live;
    }
    sim::PoolCommand cmd;
    if (planned > live) cmd.grow = planned - live;
    return cmd;  // never shrinks: speed over cost
  }

 private:
  const dag::Workflow* workflow_ = nullptr;
  sim::CloudConfig config_;
  std::unique_ptr<predict::TaskPredictor> predictor_;
};

void run(sim::ScalingPolicy& policy, const dag::Workflow& wf) {
  sim::RunOptions options;
  options.seed = 3;
  options.initial_instances = 1;
  const sim::RunResult r =
      sim::simulate(wf, policy, exp::paper_cloud(900.0), options);
  std::printf("%-12s makespan %7.0f s  cost %5.1f units  util %5.1f%%  "
              "peak %2u\n",
              r.policy_name.c_str(), r.makespan, r.cost_units,
              100.0 * r.utilization, r.peak_instances);
}

}  // namespace

int main() try {
  workload::RandomDagOptions dag_options;
  dag_options.min_layers = 4;
  dag_options.max_layers = 6;
  dag_options.min_width = 8;
  dag_options.max_width = 40;
  dag_options.mean_exec_seconds = 60.0;
  const dag::Workflow wf = workload::random_layered(dag_options, 42);
  std::printf("random layered DAG: %zu tasks, %zu stages\n\n",
              wf.task_count(), wf.stage_count());

  HysteresisPolicy hysteresis;
  TurboWire turbo;
  core::WireController stock;
  run(hysteresis, wf);
  run(stock, wf);
  run(turbo, wf);
  std::printf(
      "\nturbo-wire buys speed with extra charging units; hysteresis lags a\n"
      "full provisioning cycle behind every width change. Stock WIRE sits\n"
      "between them by design.\n");
  return 0;
} catch (const wire::util::ContractViolation& e) {
  return wire::examples::reject(e);
} catch (const wire::dag::DaxParseError& e) {
  return wire::examples::reject(e);
}
