// Quickstart: build a workflow, run it under WIRE on the simulated cloud,
// and compare against static full-site provisioning.
//
//   $ ./examples/quickstart
//
// Walks through the three core API layers:
//   1. wire::workload — instantiate a paper workload (TPCH-1 Small),
//   2. wire::core::WireController — the MAPE autoscaler,
//   3. wire::sim::simulate — the ground-truth cloud run.
#include <cstdio>

#include "core/controller.h"
#include "dag/analysis.h"
#include "exp/settings.h"
#include "policies/baselines.h"
#include "rejected_input.h"
#include "sim/driver.h"
#include "workload/generators.h"
#include "workload/profiles.h"

int main() try {
  using namespace wire;

  // 1. A workload: the paper's TPCH-1 Small run (62 tasks, 4 stages).
  const workload::WorkflowProfile profile =
      workload::tpch1_profile(workload::Scale::Small);
  const dag::Workflow wf = workload::make_workflow(profile, /*seed=*/7);

  const dag::WorkflowSummary summary = dag::summarize_workflow(wf);
  std::printf("workflow       : %s\n", wf.name().c_str());
  std::printf("tasks / stages : %u / %u\n", summary.task_count,
              summary.stage_count);
  std::printf("max width      : %u tasks in parallel\n", dag::max_width(wf));
  std::printf("aggregate work : %.2f hours\n", summary.aggregate_exec_hours);

  // 2. The simulated ExoGENI site (§IV-B): 12 instances max, 4 slots each,
  //    3-minute provisioning lag, 15-minute charging unit.
  const sim::CloudConfig cloud = exp::paper_cloud(/*charging_unit=*/900.0);

  // 3a. Run under WIRE.
  core::WireController wire_policy;
  sim::RunOptions options;
  options.seed = 1;
  options.initial_instances = 1;
  const sim::RunResult wire_run =
      sim::simulate(wf, wire_policy, cloud, options);

  // 3b. Run under static full-site provisioning (12 instances).
  policies::StaticPolicy full_site(12, "full-site");
  options.initial_instances = 12;
  const sim::RunResult static_run =
      sim::simulate(wf, full_site, cloud, options);

  std::printf("\n%-22s %12s %14s %12s %8s\n", "policy", "makespan(s)",
              "cost(units)", "utilization", "peak");
  for (const sim::RunResult* r : {&wire_run, &static_run}) {
    std::printf("%-22s %12.1f %14.1f %11.1f%% %8u\n", r->policy_name.c_str(),
                r->makespan, r->cost_units, 100.0 * r->utilization,
                r->peak_instances);
  }
  std::printf(
      "\nWIRE uses %.2fx fewer charging units at %.2fx the makespan.\n",
      static_run.cost_units / wire_run.cost_units,
      wire_run.makespan / static_run.makespan);
  return 0;
} catch (const wire::util::ContractViolation& e) {
  return wire::examples::reject(e);
} catch (const wire::dag::DaxParseError& e) {
  return wire::examples::reject(e);
}
