// Budget study (extension beyond the paper) — the cost-vs-deadline Pareto
// frontier under a spend ceiling.
//
// WIRE optimizes cost with no latency or spend constraint; DeadlinePolicy
// buys latency with money. BudgetPolicy closes the triangle: it wraps WIRE
// and paces the pool so the job lands on the deadline exactly as the budget
// runs out (kDeadlineAware), or simply refuses to start units it cannot pay
// for (kHardCap). This bench sweeps budget x deadline-slack grids on two
// workloads and reports the frontier: each row is one (budget, deadline)
// operating point with its realized cost, makespan, SLO hit rate and
// overrun. Results land in budget.csv plus machine-readable
// BENCH_budget.json (CI archives both).
//
// `--smoke` is the CI tripwire: it asserts the budget-off identity contract
// (a zero-budget wrapper reproduces the unconstrained WIRE run bit for bit)
// and that the ample-budget frontier is monotone (a looser deadline never
// costs more), returning nonzero on any violation.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "exp/settings.h"
#include "metrics/report.h"
#include "policies/budget.h"
#include "sim/driver.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "workload/generators.h"
#include "workload/profiles.h"

namespace {

using namespace wire;

constexpr std::uint32_t kReps = 3;
constexpr std::uint64_t kSeedRoot = 911;

struct Workload {
  std::string name;
  dag::Workflow wf;
  /// Unconstrained WIRE reference (probe run, seed-matched to the grid).
  double probe_cost = 0.0;
  double probe_makespan = 0.0;
};

struct Cell {
  std::size_t workload = 0;
  double budget_scale = 0.0;  // x probe cost; 0 = unconstrained reference
  double slack = 0.0;         // deadline = slack x probe makespan
  double budget_units = 0.0;
  double deadline_s = 0.0;
  metrics::CellStats stats;
  std::uint32_t met = 0;
  double over_budget_mean = 0.0;
};

sim::RunResult run_wire(const dag::Workflow& wf, std::uint64_t seed) {
  auto policy = exp::make_policy(exp::PolicyKind::Wire);
  sim::RunOptions options;
  options.seed = seed;
  options.initial_instances = 1;
  return sim::simulate(wf, *policy, exp::paper_cloud(60.0), options);
}

sim::RunResult run_budgeted(const dag::Workflow& wf,
                            const policies::BudgetOptions& budget,
                            std::uint64_t seed) {
  policies::BudgetPolicy policy(exp::make_policy(exp::PolicyKind::Wire),
                                budget);
  sim::RunOptions options;
  options.seed = seed;
  options.initial_instances = 1;
  return sim::simulate(wf, policy, exp::paper_cloud(60.0), options);
}

/// Bitwise run equality over every outcome field the budget wrapper could
/// perturb — the budget-off identity tripwire.
bool same_run(const sim::RunResult& a, const sim::RunResult& b) {
  if (a.makespan != b.makespan || a.cost_units != b.cost_units ||
      a.ready_instance_seconds != b.ready_instance_seconds ||
      a.busy_slot_seconds != b.busy_slot_seconds ||
      a.wasted_slot_seconds != b.wasted_slot_seconds ||
      a.utilization != b.utilization || a.peak_instances != b.peak_instances ||
      a.task_restarts != b.task_restarts ||
      a.control_ticks != b.control_ticks ||
      a.task_records.size() != b.task_records.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.task_records.size(); ++i) {
    if (a.task_records[i].completed_at != b.task_records[i].completed_at ||
        a.task_records[i].exec_time != b.task_records[i].exec_time ||
        a.task_records[i].instance != b.task_records[i].instance) {
      return false;
    }
  }
  return true;
}

std::vector<Workload> make_workloads() {
  return {
      {"Genome S",
       workload::make_workflow(
           workload::epigenomics_profile(workload::Scale::Small), 7)},
      {"PageRank L",
       workload::make_workflow(
           workload::pagerank_profile(workload::Scale::Large), 7)},
  };
}

void probe(std::vector<Workload>& workloads) {
  for (Workload& w : workloads) {
    const sim::RunResult r = run_wire(w.wf, util::derive_seed(kSeedRoot, 0));
    w.probe_cost = r.cost_units;
    w.probe_makespan = r.makespan;
  }
}

void run_cell(const std::vector<Workload>& workloads, Cell& cell) {
  const Workload& w = workloads[cell.workload];
  for (std::uint32_t rep = 0; rep < kReps; ++rep) {
    const std::uint64_t seed =
        util::derive_seed(kSeedRoot, 1 + cell.workload * 1000 + rep);
    sim::RunResult r;
    if (cell.budget_scale > 0.0) {
      policies::BudgetOptions budget;
      budget.budget_units = cell.budget_units;
      budget.mode = policies::BudgetMode::kDeadlineAware;
      budget.deadline_seconds = cell.deadline_s;
      r = run_budgeted(w.wf, budget, seed);
      cell.over_budget_mean +=
          std::max(0.0, r.cost_units - cell.budget_units) / kReps;
    } else {
      r = run_wire(w.wf, seed);
    }
    if (cell.deadline_s <= 0.0 || r.makespan <= cell.deadline_s) ++cell.met;
    cell.stats.add(r);
  }
}

/// The budget frontier BENCH_budget.json, one object per cell.
std::vector<bench::JsonFields> json_cells(
    const std::vector<Workload>& workloads, const std::vector<Cell>& cells) {
  std::vector<bench::JsonFields> json;
  for (const Cell& c : cells) {
    json.push_back({{"workload", workloads[c.workload].name},
                    {"budget_units", c.budget_units},
                    {"deadline_s", c.deadline_s},
                    {"cost_mean", c.stats.cost_units.mean()},
                    {"makespan_mean_s", c.stats.makespan_seconds.mean()},
                    {"slo_met", static_cast<double>(c.met) / kReps},
                    {"over_budget_mean", c.over_budget_mean},
                    {"peak_mean", c.stats.peak_instances.mean()}});
  }
  return json;
}

/// The budget-off identity contract, checked run-for-run: returns nonzero
/// (and prints the offending workload) on any bitwise divergence.
int check_budget_off_identity(const std::vector<Workload>& workloads) {
  int rc = 0;
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const std::uint64_t seed = util::derive_seed(kSeedRoot, 77 + i);
    const sim::RunResult reference = run_wire(workloads[i].wf, seed);
    const sim::RunResult off =
        run_budgeted(workloads[i].wf, policies::BudgetOptions{}, seed);
    if (!same_run(reference, off)) {
      std::printf("FAIL: budget-off run diverged from plain WIRE on %s\n",
                  workloads[i].name.c_str());
      rc = 1;
    }
  }
  return rc;
}

/// The ample-budget frontier must be monotone: a looser deadline never costs
/// more (small tolerance for charge-quantum discretization).
int check_monotone_frontier(const std::vector<Workload>& workloads,
                            std::vector<Cell>* cells) {
  int rc = 0;
  const std::vector<double> slacks = {1.5, 2.5, 4.0};
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    double previous = 0.0;
    for (double slack : slacks) {
      Cell cell;
      cell.workload = w;
      cell.budget_scale = 1.2;
      cell.slack = slack;
      cell.budget_units = std::ceil(1.2 * workloads[w].probe_cost);
      cell.deadline_s = slack * workloads[w].probe_makespan;
      run_cell(workloads, cell);
      const double cost = cell.stats.cost_units.mean();
      std::printf("  %-10s slack %.1fx  deadline %7.0f s  cost %7.1f  "
                  "makespan %7.0f s  met %u/%u\n",
                  workloads[w].name.c_str(), slack, cell.deadline_s, cost,
                  cell.stats.makespan_seconds.mean(), cell.met, kReps);
      if (previous > 0.0 && cost > previous * 1.05) {
        std::printf(
            "FAIL: frontier not monotone on %s (slack %.1fx cost %.2f > "
            "previous %.2f)\n",
            workloads[w].name.c_str(), slack, cost, previous);
        rc = 1;
      }
      previous = cost;
      cells->push_back(std::move(cell));
    }
  }
  return rc;
}

int run_smoke() {
  std::printf("bench_budget --smoke: budget-off identity + monotone "
              "frontier tripwire (seed root %llu)\n",
              static_cast<unsigned long long>(kSeedRoot));
  std::vector<Workload> workloads = make_workloads();
  probe(workloads);
  int rc = check_budget_off_identity(workloads);
  std::vector<Cell> cells;
  rc |= check_monotone_frontier(workloads, &cells);
  bench::write_study_json("budget", /*smoke=*/true,
                          {{"seed_root", kSeedRoot}},
                          json_cells(workloads, cells), "budget frontier");
  if (rc != 0) std::printf("bench_budget --smoke FAILED\n");
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return run_smoke();
  }

  std::vector<Workload> workloads = make_workloads();
  probe(workloads);
  std::printf(
      "Budget sweep: cost-vs-deadline Pareto frontier under a spend ceiling "
      "(u = 1 min, deadline-aware pacing, %u repetitions)\n\n",
      kReps);
  int rc = check_budget_off_identity(workloads);

  const std::vector<double> budget_scales = {0.7, 1.0, 1.4};
  const std::vector<double> slacks = {1.25, 1.75, 2.5, 3.5};
  std::vector<Cell> cells;
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    Cell reference;  // unconstrained WIRE operating point
    reference.workload = w;
    cells.push_back(reference);
    for (double scale : budget_scales) {
      for (double slack : slacks) {
        Cell cell;
        cell.workload = w;
        cell.budget_scale = scale;
        cell.slack = slack;
        cell.budget_units = std::ceil(scale * workloads[w].probe_cost);
        cell.deadline_s = slack * workloads[w].probe_makespan;
        cells.push_back(std::move(cell));
      }
    }
  }
  util::parallel_for(cells.size(),
                     [&](std::size_t i) { run_cell(workloads, cells[i]); });

  util::CsvWriter csv(bench::results_dir() + "/budget.csv");
  csv.write_row({"workload", "budget_units", "deadline_s", "cost_mean",
                 "makespan_mean_s", "slo_met", "over_budget_mean",
                 "peak_mean"});
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    util::TextTable table;
    table.set_header({"budget", "deadline(s)", "cost", "makespan(s)", "met",
                      "overrun", "peak"});
    for (const Cell& c : cells) {
      if (c.workload != w) continue;
      table.add_row({
          c.budget_scale > 0.0 ? util::fmt(c.budget_units, 0) : "(wire)",
          c.budget_scale > 0.0 ? util::fmt(c.deadline_s, 0) : "-",
          util::fmt(c.stats.cost_units.mean(), 1),
          util::fmt(c.stats.makespan_seconds.mean(), 0),
          std::to_string(c.met) + "/" + std::to_string(kReps),
          util::fmt(c.over_budget_mean, 2),
          util::fmt(c.stats.peak_instances.mean(), 2),
      });
      csv.write_row({workloads[w].name, util::fmt(c.budget_units, 2),
                     util::fmt(c.deadline_s, 1),
                     util::fmt(c.stats.cost_units.mean(), 3),
                     util::fmt(c.stats.makespan_seconds.mean(), 1),
                     util::fmt(static_cast<double>(c.met) / kReps, 2),
                     util::fmt(c.over_budget_mean, 3),
                     util::fmt(c.stats.peak_instances.mean(), 2)});
    }
    std::printf("%s (probe: cost %.1f units, makespan %.0f s)\n%s\n",
                workloads[w].name.c_str(), workloads[w].probe_cost,
                workloads[w].probe_makespan, table.render().c_str());
  }
  bench::write_study_json("budget", /*smoke=*/false,
                          {{"seed_root", kSeedRoot}},
                          json_cells(workloads, cells), "budget frontier");
  std::printf("series written to %s/budget.csv\n",
              bench::results_dir().c_str());
  return rc;
}
