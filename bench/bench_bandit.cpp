// Bandit predictor-selection study (extension beyond the paper — the online
// analogue of the static predictor ablation matrix).
//
// bench_studies' ablation measures each predictor variant as a fixed,
// whole-run configuration; BanditSelector instead switches the live
// TaskPredictor among a small arm set at control-tick period boundaries,
// scored by observed misprediction cost. This bench quantifies what that buys: for
// each (workload x site) cell it measures every fixed arm and both
// explorers (epsilon-greedy decay, UCB1) with the identical regret
// instrumentation — fixed arms run as degenerate single-arm selectors, so
// the cost accounting is the same code path everywhere — and reports mean
// |predicted - actual| execution-time regret per completed task. Results
// land in bandit.csv plus machine-readable BENCH_bandit.json (CI archives
// both).
//
// `--smoke` is the CI tripwire: it asserts the selector-off identity
// contract (arms == 0 and a single-default-arm selector both reproduce the
// plain WIRE run bit for bit) and the headline regret bound (the UCB1
// selector's aggregate regret lands within 10% of the best fixed arm and
// strictly below the worst), returning nonzero on any violation.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/controller.h"
#include "exp/settings.h"
#include "predict/bandit.h"
#include "sim/driver.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "workload/generators.h"
#include "workload/profiles.h"

namespace {

using namespace wire;

constexpr std::uint32_t kReps = 5;
constexpr std::uint64_t kSeedRoot = 1213;
/// Arms in play. The study set is not the default prefix: it keeps the three
/// most distinct clean variants and adds the harvest-failed arm, whose
/// contaminated statistics make it persistently bad on the crashy site — the
/// shape a selector must learn to avoid.
constexpr std::uint32_t kArms = 4;

std::vector<predict::BanditArm> study_arms() {
  const std::vector<predict::BanditArm> all = predict::default_bandit_arms();
  return {all[0], all[1], all[2], all[5]};  // median-ogd, mean-ogd,
                                            // median-stage, median-ogd-harvest
}

struct Workload {
  std::string name;
  dag::Workflow wf;
};

struct Site {
  std::string name;
  sim::CloudConfig cloud;
};

/// One (workload, site, configuration) measurement, averaged over kReps.
struct Cell {
  std::size_t workload = 0;
  std::size_t site = 0;
  /// Fixed arm index, or <0 for a live selector.
  int arm = -1;
  predict::Explorer explorer = predict::Explorer::Ucb1;
  std::string label;
  double mean_regret = 0.0;  // |predicted - actual| per completed task
  double cost_units = 0.0;
  double makespan = 0.0;
  double switches = 0.0;
};

std::vector<Workload> make_workloads() {
  return {
      {"Genome L",
       workload::make_workflow(
           workload::epigenomics_profile(workload::Scale::Large), 7)},
      {"PageRank L",
       workload::make_workflow(
           workload::pagerank_profile(workload::Scale::Large), 7)},
  };
}

std::vector<Site> make_sites() {
  // u = 15 s quadruples the control-tick count relative to the u = 60 s
  // benches: the selector needs a few dozen decision periods to amortize its
  // priming sweep, and the Table-I makespans only span ~20 ticks at u = 60.
  Site quiet{"quiet", exp::paper_cloud(15.0)};
  Site crashy{"crashy", exp::paper_cloud(15.0)};
  crashy.cloud.faults.crash_rate_per_hour = 0.6;
  crashy.cloud.faults.crash_notice_seconds = 120.0;
  crashy.cloud.faults.provision_failure_prob = 0.1;
  crashy.cloud.faults.straggler_prob = 0.15;
  crashy.cloud.faults.task_failure_prob = 0.05;
  crashy.cloud.faults.monitor_dropout_prob = 0.1;
  return {quiet, crashy};
}

/// One simulated run with the given bandit configuration; the controller
/// outlives the run so its selector statistics stay readable.
struct BanditRun {
  sim::RunResult result;
  double mean_regret = 0.0;
  std::uint64_t switches = 0;
};

BanditRun run_bandit(const dag::Workflow& wf, const sim::CloudConfig& cloud,
                     const predict::BanditOptions& bandit,
                     std::uint64_t seed) {
  core::WireOptions wire;
  wire.bandit = bandit;
  // The explorer's dedicated stream, derived from the run seed: reps see
  // independent exploration, replays of the same seed are identical.
  wire.bandit.seed = util::derive_seed(seed, 0xB17);
  core::WireController policy(wire);
  sim::RunOptions options;
  options.seed = seed;
  options.initial_instances = 1;
  BanditRun out;
  out.result = sim::simulate(wf, policy, cloud, options);
  const predict::BanditSelector* selector = policy.bandit();
  if (selector != nullptr && selector->total_completions() > 0) {
    out.mean_regret = selector->total_cost() /
                      static_cast<double>(selector->total_completions());
    out.switches = selector->switches();
  }
  return out;
}

predict::BanditOptions fixed_arm(std::uint32_t index) {
  predict::BanditOptions bandit;
  bandit.arms = 1;
  bandit.arm_set = {study_arms()[index]};
  return bandit;
}

predict::BanditOptions selector_options(predict::Explorer explorer) {
  predict::BanditOptions bandit;
  bandit.arms = kArms;
  bandit.arm_set = study_arms();
  bandit.explorer = explorer;
  // Short periods and tight exploration: the Table-I horizons are a few
  // dozen decision periods, so the explorer must commit quickly after the
  // priming sweep or the run ends while it is still sampling bad arms.
  bandit.switch_period_ticks = 2;
  bandit.ucb_c = 0.1;
  bandit.epsilon0 = 0.2;
  bandit.decay = 1.0;
  return bandit;
}

void run_cell(const std::vector<Workload>& workloads,
              const std::vector<Site>& sites, Cell& cell) {
  const predict::BanditOptions bandit =
      cell.arm >= 0 ? fixed_arm(static_cast<std::uint32_t>(cell.arm))
                    : selector_options(cell.explorer);
  for (std::uint32_t rep = 0; rep < kReps; ++rep) {
    const std::uint64_t seed = util::derive_seed(
        kSeedRoot, 1 + cell.workload * 1000 + cell.site * 100 + rep);
    const BanditRun run =
        run_bandit(workloads[cell.workload].wf, sites[cell.site].cloud,
                   bandit, seed);
    cell.mean_regret += run.mean_regret / kReps;
    cell.cost_units += run.result.cost_units / kReps;
    cell.makespan += run.result.makespan / kReps;
    cell.switches += static_cast<double>(run.switches) / kReps;
  }
}

/// The selector-off identity contract, checked run-for-run on both off
/// shapes (arms == 0 and a pinned default arm): returns nonzero on any
/// bitwise divergence from plain WIRE.
int check_selector_off_identity(const std::vector<Workload>& workloads,
                                const std::vector<Site>& sites) {
  int rc = 0;
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    for (std::size_t s = 0; s < sites.size(); ++s) {
      const std::uint64_t seed = util::derive_seed(kSeedRoot, 77 + w * 10 + s);
      auto baseline = exp::make_policy(exp::PolicyKind::Wire);
      sim::RunOptions options;
      options.seed = seed;
      options.initial_instances = 1;
      const sim::RunResult reference =
          sim::simulate(workloads[w].wf, *baseline, sites[s].cloud, options);
      const sim::RunResult off =
          run_bandit(workloads[w].wf, sites[s].cloud, {}, seed).result;
      const sim::RunResult pinned =
          run_bandit(workloads[w].wf, sites[s].cloud, fixed_arm(0), seed)
              .result;
      if (!bench::same_run(reference, off) ||
          !bench::same_run(reference, pinned)) {
        std::printf("FAIL: selector-off run diverged from plain WIRE on "
                    "%s/%s\n",
                    workloads[w].name.c_str(), sites[s].name.c_str());
        rc = 1;
      }
    }
  }
  return rc;
}

std::vector<Cell> make_cells(std::size_t workloads, std::size_t sites) {
  std::vector<Cell> cells;
  const std::vector<predict::BanditArm> arms = study_arms();
  for (std::size_t w = 0; w < workloads; ++w) {
    for (std::size_t s = 0; s < sites; ++s) {
      for (std::uint32_t a = 0; a < kArms; ++a) {
        Cell cell;
        cell.workload = w;
        cell.site = s;
        cell.arm = static_cast<int>(a);
        cell.label = arms[a].label;
        cells.push_back(std::move(cell));
      }
      for (predict::Explorer explorer :
           {predict::Explorer::EpsilonGreedyDecay, predict::Explorer::Ucb1}) {
        Cell cell;
        cell.workload = w;
        cell.site = s;
        cell.explorer = explorer;
        cell.label = explorer == predict::Explorer::Ucb1
                         ? "selector-ucb1"
                         : "selector-eps";
        cells.push_back(std::move(cell));
      }
    }
  }
  return cells;
}

struct Aggregate {
  double vs_best = 0.0;   // mean over cells of selector / best fixed arm
  double vs_worst = 0.0;  // mean over cells of selector / worst fixed arm
};

/// The UCB1 selector's aggregate regret, normalized per cell against the
/// best and worst fixed arm of that cell.
Aggregate aggregate_ucb1(const std::vector<Cell>& cells, std::size_t workloads,
                         std::size_t sites) {
  Aggregate agg;
  std::size_t counted = 0;
  for (std::size_t w = 0; w < workloads; ++w) {
    for (std::size_t s = 0; s < sites; ++s) {
      double best = 0.0, worst = 0.0, selector = 0.0;
      bool seeded = false;
      for (const Cell& c : cells) {
        if (c.workload != w || c.site != s) continue;
        if (c.arm >= 0) {
          if (!seeded || c.mean_regret < best) best = c.mean_regret;
          if (!seeded || c.mean_regret > worst) worst = c.mean_regret;
          seeded = true;
        } else if (c.explorer == predict::Explorer::Ucb1) {
          selector = c.mean_regret;
        }
      }
      if (!seeded || best <= 0.0 || worst <= 0.0) continue;
      agg.vs_best += selector / best;
      agg.vs_worst += selector / worst;
      ++counted;
    }
  }
  if (counted > 0) {
    agg.vs_best /= static_cast<double>(counted);
    agg.vs_worst /= static_cast<double>(counted);
  }
  return agg;
}

/// The headline bound: within 10% of the best fixed arm, strictly below the
/// worst — on the aggregate across cells.
int check_regret_bound(const Aggregate& agg) {
  int rc = 0;
  std::printf("selector-ucb1 aggregate regret: %.3fx best fixed arm, "
              "%.3fx worst fixed arm\n",
              agg.vs_best, agg.vs_worst);
  if (agg.vs_best > 1.10) {
    std::printf("FAIL: selector regret %.3fx best fixed arm (bound 1.10x)\n",
                agg.vs_best);
    rc = 1;
  }
  if (agg.vs_worst >= 1.0) {
    std::printf(
        "FAIL: selector regret %.3fx worst fixed arm (must be < 1.0x)\n",
        agg.vs_worst);
    rc = 1;
  }
  return rc;
}

/// The bandit study BENCH_bandit.json: the header after the seed root
/// carries the arm count and the UCB1 aggregate, then one object per cell.
bench::JsonFields json_header(const Aggregate& agg) {
  const bench::JsonFields aggregate = {{"selector_vs_best", agg.vs_best},
                                       {"selector_vs_worst", agg.vs_worst}};
  return {{"seed_root", kSeedRoot}, {"arms", kArms}, {"aggregate", aggregate}};
}

std::vector<bench::JsonFields> json_cells(
    const std::vector<Workload>& workloads, const std::vector<Site>& sites,
    const std::vector<Cell>& cells) {
  std::vector<bench::JsonFields> json;
  for (const Cell& c : cells) {
    json.push_back({{"workload", workloads[c.workload].name},
                    {"site", sites[c.site].name},
                    {"config", c.label},
                    {"mean_regret_s", c.mean_regret},
                    {"cost_mean", c.cost_units},
                    {"makespan_mean_s", c.makespan},
                    {"switches_mean", c.switches}});
  }
  return json;
}

int run_smoke() {
  std::printf("bench_bandit --smoke: selector-off identity + regret-bound "
              "tripwire (seed root %llu, %u arms)\n",
              static_cast<unsigned long long>(kSeedRoot), kArms);
  std::vector<Workload> workloads = make_workloads();
  std::vector<Site> sites = make_sites();
  int rc = check_selector_off_identity(workloads, sites);
  std::vector<Cell> cells = make_cells(workloads.size(), sites.size());
  util::parallel_for(cells.size(), [&](std::size_t i) {
    run_cell(workloads, sites, cells[i]);
  });
  const Aggregate agg = aggregate_ucb1(cells, workloads.size(), sites.size());
  rc |= check_regret_bound(agg);
  bench::write_study_json("bandit", /*smoke=*/true, json_header(agg),
                          json_cells(workloads, sites, cells), "bandit study");
  if (rc != 0) std::printf("bench_bandit --smoke FAILED\n");
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return run_smoke();
  }

  std::vector<Workload> workloads = make_workloads();
  std::vector<Site> sites = make_sites();
  std::printf(
      "Bandit predictor-selection study: fixed arms vs seeded explorers "
      "(%u-arm study set, switch period 2 ticks, %u repetitions)\n\n",
      kArms, kReps);
  int rc = check_selector_off_identity(workloads, sites);

  std::vector<Cell> cells = make_cells(workloads.size(), sites.size());
  util::parallel_for(cells.size(), [&](std::size_t i) {
    run_cell(workloads, sites, cells[i]);
  });

  util::CsvWriter csv(bench::results_dir() + "/bandit.csv");
  csv.write_row({"workload", "site", "config", "mean_regret_s", "cost_mean",
                 "makespan_mean_s", "switches_mean"});
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    for (std::size_t s = 0; s < sites.size(); ++s) {
      util::TextTable table;
      table.set_header(
          {"config", "regret(s)", "cost", "makespan(s)", "switches"});
      for (const Cell& c : cells) {
        if (c.workload != w || c.site != s) continue;
        table.add_row({c.label, util::fmt(c.mean_regret, 2),
                       util::fmt(c.cost_units, 1), util::fmt(c.makespan, 0),
                       util::fmt(c.switches, 1)});
        csv.write_row({workloads[w].name, sites[s].name, c.label,
                       util::fmt(c.mean_regret, 4),
                       util::fmt(c.cost_units, 3), util::fmt(c.makespan, 1),
                       util::fmt(c.switches, 2)});
      }
      std::printf("%s / %s\n%s\n", workloads[w].name.c_str(),
                  sites[s].name.c_str(), table.render().c_str());
    }
  }
  const Aggregate agg = aggregate_ucb1(cells, workloads.size(), sites.size());
  rc |= check_regret_bound(agg);
  bench::write_study_json("bandit", /*smoke=*/false, json_header(agg),
                          json_cells(workloads, sites, cells), "bandit study");
  std::printf("series written to %s/bandit.csv\n",
              bench::results_dir().c_str());
  return rc;
}
