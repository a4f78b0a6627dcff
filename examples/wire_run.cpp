// wire_run — command-line runner for one workflow under one policy.
//
//   $ ./examples/wire_run --workflow tpch1-s --policy wire --unit 900
//   $ ./examples/wire_run --dag my.wire-dag --policy pure-reactive
//         --unit 60 --lag 120 --seed 9 --reps 5
//         --gantt gantt.csv --timeline pool.csv --summary runs.csv
//
// Workflows: genome-s|genome-l|tpch1-s|tpch1-l|tpch6-s|tpch6-l|
//            pagerank-s|pagerank-l, or any DAG file written by
//            dag::write_workflow (--dag).
// Policies:  wire | wire-oracle | full-site | pure-reactive |
//            reactive-conserving | static-<N>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/controller.h"
#include "dag/dax.h"
#include "dag/serialize.h"
#include "exp/settings.h"
#include "metrics/export.h"
#include "policies/baselines.h"
#include "rejected_input.h"
#include "sim/driver.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/table.h"
#include "workload/generators.h"
#include "workload/profiles.h"

namespace {

using namespace wire;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--workflow NAME | --dag FILE | --dax FILE] [--policy P] "
      "[--unit SECS]\n"
      "          [--lag SECS] [--slots N] [--max-instances N] [--seed N]\n"
      "          [--reps N] [--gantt FILE] [--timeline FILE] "
      "[--summary FILE] [--mape FILE]\n",
      argv0);
  std::exit(2);
}

std::optional<workload::WorkflowProfile> named_profile(
    const std::string& name) {
  using workload::Scale;
  static const std::map<std::string,
                        workload::WorkflowProfile (*)(Scale)>
      families = {
          {"genome", workload::epigenomics_profile},
          {"tpch1", workload::tpch1_profile},
          {"tpch6", workload::tpch6_profile},
          {"pagerank", workload::pagerank_profile},
      };
  const auto dash = name.rfind('-');
  if (dash == std::string::npos) return std::nullopt;
  const auto it = families.find(name.substr(0, dash));
  if (it == families.end()) return std::nullopt;
  const std::string scale = name.substr(dash + 1);
  if (scale == "s") return it->second(Scale::Small);
  if (scale == "l") return it->second(Scale::Large);
  return std::nullopt;
}

std::unique_ptr<sim::ScalingPolicy> named_policy(const std::string& name) {
  if (name == "wire") return std::make_unique<core::WireController>();
  if (name == "wire-oracle") {
    core::WireOptions options;
    options.oracle_estimator = true;
    return std::make_unique<core::WireController>(options);
  }
  if (name == "full-site") {
    return std::make_unique<policies::StaticPolicy>(12, "full-site");
  }
  if (name == "pure-reactive") {
    return std::make_unique<policies::PureReactivePolicy>();
  }
  if (name == "reactive-conserving") {
    return std::make_unique<policies::ReactiveConservingPolicy>();
  }
  if (name.rfind("static-", 0) == 0) {
    const int n = std::atoi(name.c_str() + 7);
    if (n >= 1) {
      return std::make_unique<policies::StaticPolicy>(
          static_cast<std::uint32_t>(n));
    }
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) try {
  std::string workflow_name = "tpch1-s";
  std::string dag_file;
  std::string dax_file;
  std::string policy_name = "wire";
  std::string gantt_path, timeline_path, summary_path, mape_path;
  double unit = 900.0;
  double lag = 180.0;
  std::uint32_t slots = 4;
  std::uint32_t max_instances = 12;
  std::uint64_t seed = 1;
  std::uint32_t reps = 1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--workflow") workflow_name = next();
    else if (arg == "--dag") dag_file = next();
    else if (arg == "--dax") dax_file = next();
    else if (arg == "--policy") policy_name = next();
    else if (arg == "--unit") unit = std::atof(next());
    else if (arg == "--lag") lag = std::atof(next());
    else if (arg == "--slots") slots = static_cast<std::uint32_t>(std::atoi(next()));
    else if (arg == "--max-instances") max_instances = static_cast<std::uint32_t>(std::atoi(next()));
    else if (arg == "--seed") seed = static_cast<std::uint64_t>(std::atoll(next()));
    else if (arg == "--reps") reps = static_cast<std::uint32_t>(std::atoi(next()));
    else if (arg == "--gantt") gantt_path = next();
    else if (arg == "--timeline") timeline_path = next();
    else if (arg == "--summary") summary_path = next();
    else if (arg == "--mape") mape_path = next();
    else usage(argv[0]);
  }
  if (unit <= 0.0 || lag <= 0.0 || slots == 0 || reps == 0) usage(argv[0]);

  // Workflow.
  std::unique_ptr<dag::Workflow> wf;
  if (!dax_file.empty()) {
    std::ifstream in(dax_file);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", dax_file.c_str());
      return 1;
    }
    wf = std::make_unique<dag::Workflow>(dag::read_dax(in, dax_file));
  } else if (!dag_file.empty()) {
    std::ifstream in(dag_file);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", dag_file.c_str());
      return 1;
    }
    wf = std::make_unique<dag::Workflow>(dag::read_workflow(in));
  } else {
    const auto profile = named_profile(workflow_name);
    if (!profile) {
      std::fprintf(stderr, "unknown workflow '%s'\n", workflow_name.c_str());
      usage(argv[0]);
    }
    wf = std::make_unique<dag::Workflow>(workload::make_workflow(*profile, 7));
  }

  // Cloud.
  sim::CloudConfig config = exp::paper_cloud(unit);
  config.lag_seconds = lag;
  config.slots_per_instance = slots;
  config.max_instances = max_instances;
  config.validate();

  std::printf("workflow %s: %zu tasks / %zu stages; policy %s; u=%.0fs "
              "lag=%.0fs slots=%u cap=%u\n\n",
              wf->name().c_str(), wf->task_count(), wf->stage_count(),
              policy_name.c_str(), unit, lag, slots, max_instances);
  std::printf("%4s %12s %12s %12s %6s %9s\n", "rep", "makespan(s)",
              "cost(units)", "utilization", "peak", "restarts");

  for (std::uint32_t rep = 0; rep < reps; ++rep) {
    auto policy = named_policy(policy_name);
    if (!policy) {
      std::fprintf(stderr, "unknown policy '%s'\n", policy_name.c_str());
      usage(argv[0]);
    }
    // MAPE decision trace (wire policies only, first repetition).
    std::unique_ptr<util::CsvWriter> mape_csv;
    if (rep == 0 && !mape_path.empty()) {
      if (auto* wire_policy =
              dynamic_cast<core::WireController*>(policy.get())) {
        mape_csv = std::make_unique<util::CsvWriter>(mape_path);
        mape_csv->write_row({"time", "upcoming_tasks",
                             "upcoming_load_seconds", "planned_pool", "grow",
                             "releases"});
        wire_policy->set_trace_listener(
            [&mape_csv](const core::MapeTrace& t) {
              mape_csv->write_row({util::fmt(t.now, 1),
                                   std::to_string(t.upcoming_tasks),
                                   util::fmt(t.upcoming_load_seconds, 1),
                                   std::to_string(t.planned_pool),
                                   std::to_string(t.grow),
                                   std::to_string(t.releases)});
            });
      } else {
        std::fprintf(stderr,
                     "--mape requires a wire policy; ignoring for '%s'\n",
                     policy_name.c_str());
      }
    }
    sim::RunOptions options;
    options.seed = util::derive_seed(seed, rep);
    options.initial_instances =
        policy_name == "full-site" ? max_instances
        : policy_name.rfind("static-", 0) == 0
            ? static_cast<std::uint32_t>(std::atoi(policy_name.c_str() + 7))
            : 1;
    options.record_pool_timeline = !timeline_path.empty();
    const sim::RunResult r = sim::simulate(*wf, *policy, config, options);
    std::printf("%4u %12.1f %12.1f %11.1f%% %6u %9u\n", rep, r.makespan,
                r.cost_units, 100.0 * r.utilization, r.peak_instances,
                r.task_restarts);

    if (rep == 0 && !gantt_path.empty()) {
      metrics::write_gantt_csv(gantt_path, *wf, r);
      std::printf("  gantt -> %s\n", gantt_path.c_str());
    }
    if (rep == 0 && !timeline_path.empty()) {
      metrics::write_timeline_csv(timeline_path, r);
      std::printf("  timeline -> %s\n", timeline_path.c_str());
    }
    if (!summary_path.empty()) {
      metrics::write_summary_csv(summary_path, r, /*append=*/true);
    }
    if (mape_csv) {
      std::printf("  mape trace -> %s\n", mape_path.c_str());
    }
  }
  if (!summary_path.empty()) {
    std::printf("\nsummaries appended to %s\n", summary_path.c_str());
  }
  return 0;
} catch (const wire::util::ContractViolation& e) {
  return wire::examples::reject(e);
} catch (const wire::dag::DaxParseError& e) {
  return wire::examples::reject(e);
}
