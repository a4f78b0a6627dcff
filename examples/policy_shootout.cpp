// Policy shootout: the §IV-C comparison on a workload of your choice.
//
//   $ ./examples/policy_shootout [genome|tpch1|tpch6|pagerank] [small|large]
//
// Runs all four resource-management settings (full-site, pure-reactive,
// reactive-conserving, wire) across the four paper charging units and prints
// the Figure 5/6 style summary: charging units consumed and execution time
// relative to the best setting. A coda reruns WIRE under a shrinking spend
// ceiling (policies::BudgetPolicy, hard cap) to show how the schedule trades
// makespan for cost as the budget tightens.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "exp/settings.h"
#include "policies/budget.h"
#include "rejected_input.h"
#include "sim/driver.h"
#include "util/table.h"
#include "workload/generators.h"
#include "workload/profiles.h"

int main(int argc, char** argv) try {
  using namespace wire;

  const std::string which = argc > 1 ? argv[1] : "tpch1";
  const workload::Scale scale =
      (argc > 2 && std::strcmp(argv[2], "large") == 0)
          ? workload::Scale::Large
          : workload::Scale::Small;

  workload::WorkflowProfile profile;
  if (which == "genome") {
    profile = workload::epigenomics_profile(scale);
  } else if (which == "tpch6") {
    profile = workload::tpch6_profile(scale);
  } else if (which == "pagerank") {
    profile = workload::pagerank_profile(scale);
  } else {
    profile = workload::tpch1_profile(scale);
  }

  const exp::Study study = exp::paper_study(
      {workload::make_workflow(profile, 7)}, /*repetitions=*/3);
  const auto cells = study.run();

  // Find the best mean makespan for the relative-time normalization.
  double best = 1e300;
  for (const exp::StudyCell& cell : cells) {
    best = std::min(best, cell.stats.makespan_seconds.mean());
  }

  std::printf("=== %s: %zu policies x %zu charging units, %u runs each ===\n\n",
              profile.name.c_str(), study.variants.size(),
              study.clouds.size(), study.repetitions);

  util::TextTable cost, time;
  cost.set_header({"cost (units)", "1 min", "15 min", "30 min", "60 min"});
  time.set_header({"rel. time", "1 min", "15 min", "30 min", "60 min"});
  for (std::size_t p = 0; p < study.variants.size(); ++p) {
    std::vector<std::string> cost_row{study.variants[p].label};
    std::vector<std::string> time_row{study.variants[p].label};
    for (std::size_t u = 0; u < study.clouds.size(); ++u) {
      const exp::StudyCell& cell = cells[study.cell_index(0, u, p)];
      cost_row.push_back(util::fmt_mean_std(cell.stats.cost_units.mean(),
                                            cell.stats.cost_units.stddev(),
                                            1));
      time_row.push_back(
          util::fmt(cell.stats.makespan_seconds.mean() / best, 2) + "x");
    }
    cost.add_row(std::move(cost_row));
    time.add_row(std::move(time_row));
  }
  std::printf("%s\n%s", cost.render().c_str(), time.render().c_str());
  std::printf(
      "\nReading guide: full-site is the speed bound (12 instances, idle\n"
      "most of the time); pure-reactive chases the instantaneous load and\n"
      "pays recharge penalties; reactive-conserving releases only at charge\n"
      "boundaries; wire additionally predicts the upcoming load from the\n"
      "DAG, so it grows before the width arrives and shrinks before waste\n"
      "accumulates.\n");

  // Budget coda: WIRE on the 1-minute unit (the finest-grained billing, so
  // the cap actually bites), unconstrained first to probe the natural cost,
  // then hard-capped at 100% / 80% / 60% of it. The "off" row is the zero
  // sentinel — it must reproduce the unconstrained run exactly.
  const sim::CloudConfig site = exp::paper_cloud(60.0);
  const dag::Workflow wf = workload::make_workflow(profile, /*seed=*/1);
  sim::RunOptions run_options;
  run_options.seed = 1;
  const auto run_with_budget = [&](double units) {
    policies::BudgetOptions budget;
    budget.budget_units = units;
    policies::BudgetPolicy policy(exp::make_policy(exp::PolicyKind::Wire),
                                  budget);
    sim::RunResult r = sim::simulate(wf, policy, site, run_options);
    return std::pair<sim::RunResult, bool>(std::move(r), policy.exhausted());
  };
  const auto [probe, probe_exhausted] = run_with_budget(0.0);
  util::TextTable budget_table;
  budget_table.set_header(
      {"budget", "units", "cost", "makespan (s)", "exhausted"});
  for (double scale : {0.0, 1.0, 0.8, 0.6}) {
    const double units =
        scale == 0.0 ? 0.0 : std::ceil(probe.cost_units * scale);
    const auto [r, exhausted] = run_with_budget(units);
    budget_table.add_row(
        {scale == 0.0 ? std::string("off") : util::fmt(scale, 1) + "x",
         scale == 0.0 ? std::string("-") : util::fmt(units, 0),
         util::fmt(r.cost_units, 1), util::fmt(r.makespan, 0),
         exhausted ? "yes" : "no"});
  }
  std::printf("\n=== wire under a hard spend cap (1 min unit) ===\n\n%s",
              budget_table.render().c_str());
  return 0;
} catch (const wire::util::ContractViolation& e) {
  return wire::examples::reject(e);
} catch (const wire::dag::DaxParseError& e) {
  return wire::examples::reject(e);
}
