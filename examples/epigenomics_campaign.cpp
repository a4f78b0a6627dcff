// Epigenomics campaign: the paper's flagship scientific workflow end to end.
//
//   $ ./examples/epigenomics_campaign [small|large]
//
// Builds the 8-stage USC Epigenome pipeline (fastqSplit -> filterContams ->
// sol2sanger -> fast2bfq -> map -> mapMerge -> maqIndex -> pileup), prints
// its structure, persists it in the DAX-like text format, then runs it under
// WIRE across all four paper charging units with a pool-size timeline so you
// can watch the autoscaler chase the workflow's width.
#include <cstdio>
#include <cstring>
#include <fstream>

#include "core/controller.h"
#include "dag/analysis.h"
#include "dag/serialize.h"
#include "exp/settings.h"
#include "rejected_input.h"
#include "sim/driver.h"
#include "workload/generators.h"
#include "workload/profiles.h"

int main(int argc, char** argv) try {
  using namespace wire;

  const bool large = argc > 1 && std::strcmp(argv[1], "large") == 0;
  const workload::WorkflowProfile profile = workload::epigenomics_profile(
      large ? workload::Scale::Large : workload::Scale::Small);
  const dag::Workflow wf = workload::make_workflow(profile, /*seed=*/7);

  // --- Structure -------------------------------------------------------
  std::printf("=== %s ===\n", wf.name().c_str());
  const auto summaries = dag::summarize_stages(wf);
  std::printf("%-16s %7s %12s %10s\n", "stage", "tasks", "mean exec(s)",
              "class");
  for (const dag::StageSummary& s : summaries) {
    std::printf("%-16s %7u %12.2f %10s\n", s.name.c_str(), s.task_count,
                s.mean_ref_exec_seconds,
                dag::stage_class_name(
                    dag::classify_stage(s.mean_ref_exec_seconds)));
  }
  const auto widths = dag::width_profile(wf);
  std::printf("parallelism profile (tasks per DAG level):");
  for (std::uint32_t w : widths) std::printf(" %u", w);
  std::printf("\ncritical path: %.1f s; aggregate work: %.2f h\n\n",
              dag::critical_path_seconds(wf),
              wf.aggregate_ref_exec_seconds() / 3600.0);

  // --- Persist the DAG (DAX-like text format) ---------------------------
  const std::string dax_path = "epigenomics.wire-dag";
  {
    std::ofstream out(dax_path);
    dag::write_workflow(out, wf);
  }
  std::printf("workflow serialized to ./%s\n\n", dax_path.c_str());

  // --- Run under WIRE across the paper's charging units ------------------
  std::printf("%10s %12s %12s %12s %8s %9s\n", "unit", "makespan(s)",
              "cost(units)", "utilization", "peak", "restarts");
  for (double unit : exp::paper_charging_units()) {
    core::WireController controller;
    sim::RunOptions options;
    options.seed = 1;
    options.initial_instances = 1;
    options.record_pool_timeline = true;
    const sim::RunResult r =
        sim::simulate(wf, controller, exp::paper_cloud(unit), options);
    std::printf("%7.0f min %12.1f %12.1f %11.1f%% %8u %9u\n", unit / 60.0,
                r.makespan, r.cost_units, 100.0 * r.utilization,
                r.peak_instances, r.task_restarts);

    if (unit == 60.0) {
      std::printf("\npool-size timeline at u = 1 min (one row per MAPE "
                  "tick):\n  time(s)  pool  running  ready\n");
      for (std::size_t i = 0; i < r.pool_timeline.size();
           i += std::max<std::size_t>(1, r.pool_timeline.size() / 20)) {
        const sim::PoolSample& s = r.pool_timeline[i];
        std::printf("  %7.0f  %4u  %7u  %5u\n", s.time, s.live_instances,
                    s.running_tasks, s.ready_tasks);
      }
      std::printf("\n");
    }
  }
  std::printf(
      "\nNote how larger charging units push WIRE toward smaller pools:\n"
      "releasing an instance mid-unit wastes paid time, so elastic agility\n"
      "is inherently limited when u is long relative to task runtimes\n"
      "(paper §IV-A, Figure 3).\n");
  return 0;
} catch (const wire::util::ContractViolation& e) {
  return wire::examples::reject(e);
} catch (const wire::dag::DaxParseError& e) {
  return wire::examples::reject(e);
}
