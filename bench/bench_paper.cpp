// The paper's evaluation in one harness: Table I, Figs. 2-6 and the §II-B
// Observation-2 study, run in that order. Each study prints its tables and
// summary lines and writes its CSV series to bench_results/ (table1.csv,
// fig2.csv ... fig6.csv, fig4_cdf.csv, motivation.csv).
//
// Table I — the workload characterization from our generators: framework,
// dataset size, stage count, aggregate task execution time, total tasks,
// per-stage task-count and mean-exec ranges, task-type mix (short/medium/long
// per §IV-D). Matches the paper on stage/task structure exactly and on the
// timing/dataset columns approximately (see DESIGN.md).
//
// Figs. 2/3 — the resource-steering policy on §IV-A's single-stage linear
// workflows: N in {10, 100, 1000} identical tasks of run time R on 1-slot
// instances, charging unit U, from P = 1; cost and completion time as ratios
// to the optima NR/U and R. Fig. 2 sweeps R/U > 1 (paper: both ratios stay
// bounded, ~1.33x cost and ~1.67x time, and approach 1 as R/U grows). Fig. 3
// sweeps U/R in 1..1000 (paper: the policy "may deviate widely from optimal
// behavior along either metric").
//
// Fig. 4 — task-prediction error CDFs (§IV-D). Actual execution times come
// from ground-truth full-site runs (3 repetitions); each stage with >= 2
// tasks (the paper has 45) is replayed through a fresh predictor in 5 random
// task orders, recording each task's error just before it runs. Stages are
// classed by mean execution time: short (<= 10 s) and medium (10-30 s) report
// true error, long (> 30 s) relative true error. Paper: mean error <= 0.1 s /
// <= 2.15 s / <= 13.1 %; ~93 % of short and ~79 % of medium tasks within 1 s;
// ~83 % of long tasks within 15 %; small differences across task orders.
//
// Figs. 5/6 — one run of the §IV-C matrix: the eight Table I workloads under
// {full-site, pure-reactive, reactive-conserving, wire} x charging units
// {1, 15, 30, 60} min, 3 seeded repetitions per cell. Fig. 5 reports cost in
// charging units (paper: wire cheapest in most cells; the others cost
// 0.93x-14.66x of wire, full-site 4.93x-14.66x). Fig. 6 normalizes each
// cell's mean makespan to the workload's best cell (paper: wire slows down
// 1.02x-3.57x overall, 1.02x-1.65x at u = 1 min, within 2x for most cells).
//
// Observation 2 (§II-B) — "task execution times are highly variable across
// runs", which undermines history-based predictors (Jockey, Apollo). The
// ground truth draws a per-run speed factor (lognormal, sigma = 0.25). Per
// workload, one full-site run is the "previous run" archive; five fresh runs
// are predicted from that history and online through the stage replay, and
// wire runs under the history estimator and the online predictor head to
// head. Expected: history's error tracks the run-factor gap (tens of
// percent), online error stays at the noise floor, and wire-history pays for
// it in time or cost.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/controller.h"
#include "dag/analysis.h"
#include "exp/prediction_harness.h"
#include "exp/runner.h"
#include "exp/settings.h"
#include "metrics/report.h"
#include "policies/baselines.h"
#include "predict/history.h"
#include "sim/driver.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "workload/generators.h"
#include "workload/profiles.h"

namespace {

using namespace wire;

void series_written(const char* file) {
  std::printf("series written to %s/%s\n", bench::results_dir().c_str(),
              file);
}

// --- Table I ---------------------------------------------------------------

void table1() {
  util::TextTable table;
  table.set_header({"Run", "Framework", "Data(GB)", "Stages", "AggExec(h)",
                    "Tasks", "Tasks/Stage", "MeanExec/Stage(s)", "Types"});
  util::CsvWriter csv(bench::results_dir() + "/table1.csv");
  csv.write_row({"run", "framework", "data_gb", "stages", "agg_exec_hours",
                 "tasks", "min_stage_tasks", "max_stage_tasks",
                 "min_stage_mean_exec", "max_stage_mean_exec", "types"});
  for (const workload::WorkflowProfile& profile :
       workload::table1_profiles()) {
    const dag::WorkflowSummary s =
        dag::summarize_workflow(workload::make_workflow(profile, 7));
    table.add_row({profile.name, profile.framework, util::fmt(s.dataset_gb, 3),
                   std::to_string(s.stage_count),
                   util::fmt(s.aggregate_exec_hours, 3),
                   std::to_string(s.task_count),
                   std::to_string(s.min_stage_tasks) + "-" +
                       std::to_string(s.max_stage_tasks),
                   util::fmt(s.min_stage_mean_exec, 2) + "-" +
                       util::fmt(s.max_stage_mean_exec, 2),
                   s.task_type_mix});
    csv.write_row({profile.name, profile.framework, util::fmt(s.dataset_gb, 4),
                   std::to_string(s.stage_count),
                   util::fmt(s.aggregate_exec_hours, 4),
                   std::to_string(s.task_count),
                   std::to_string(s.min_stage_tasks),
                   std::to_string(s.max_stage_tasks),
                   util::fmt(s.min_stage_mean_exec, 3),
                   util::fmt(s.max_stage_mean_exec, 3), s.task_type_mix});
  }
  std::printf("Table I: example workflows used in the experiments\n\n%s\n",
              table.render().c_str());
  std::printf(
      "paper reference: Genome 405/4005 tasks over 8 stages, TPCH-1 62/229 "
      "over 4,\nTPCH-6 33/118 over 2, PageRank 115/313 over 12; datasets "
      "0.002-29.53 GB.\n");
  series_written("table1.csv");
}

// --- Figs. 2/3: the linear-workflow steering sweep --------------------------

/// Fig. 2 (`fix_u`: U = 600 s, R = U * ratio) or Fig. 3 (R = 600 s,
/// U = R * ratio), one sweep over N x ratio with the figure's own summary.
void steering_figure(bool fix_u) {
  const char* name = fix_u ? "fig2" : "fig3";
  const std::vector<std::uint32_t> ns = {10, 100, 1000};
  const std::vector<double> ratios =
      fix_u ? std::vector<double>{1.25, 1.5, 2, 4, 8, 16, 32, 64, 128, 256,
                                  400, 512}
            : std::vector<double>{1, 2, 4, 8, 16, 32, 64, 125, 250, 500,
                                  1000};
  // (cost ratio, time ratio), N-major.
  std::vector<std::pair<double, double>> points(ns.size() * ratios.size());
  util::parallel_for(points.size(), [&](std::size_t i) {
    const std::uint32_t n = ns[i / ratios.size()];
    const double ratio = ratios[i % ratios.size()];
    const double r = fix_u ? 600.0 * ratio : 600.0;
    const double u = fix_u ? 600.0 : 600.0 * ratio;
    const dag::Workflow wf = workload::linear_workflow(1, n, r, name);
    core::WireController controller;
    sim::RunOptions options;
    options.initial_instances = 1;
    const sim::RunResult result =
        sim::simulate(wf, controller, bench::idealized_cloud(r, u), options);
    points[i] = {result.cost_units / (n * r / u), result.makespan / r};
  });

  std::printf(
      "Figure %d: resource-steering policy vs optimal, %s "
      "(ratios to cost NR/U and time R)\n\n",
      fix_u ? 2 : 3, fix_u ? "R > U" : "R <= U");
  util::CsvWriter csv(bench::results_dir() + "/" + name + ".csv");
  csv.write_row({"N", fix_u ? "R_over_U" : "U_over_R", "cost_ratio",
                 "time_ratio"});
  for (std::size_t k = 0; k < ns.size(); ++k) {
    util::TextTable table;
    table.set_header({fix_u ? "R/U" : "U/R", "resource usage / optimal",
                      "completion time / optimal"});
    double worst_cost = 0.0, worst_time = 0.0;
    double paper_range_cost = 0.0, paper_range_time = 0.0;
    for (std::size_t j = 0; j < ratios.size(); ++j) {
      const auto [cost_ratio, time_ratio] = points[k * ratios.size() + j];
      table.add_row({util::fmt(ratios[j], fix_u ? 2 : 0),
                     util::fmt(cost_ratio, 3), util::fmt(time_ratio, 3)});
      csv.write_row({std::to_string(ns[k]), util::fmt(ratios[j], 2),
                     util::fmt(cost_ratio, 4), util::fmt(time_ratio, 4)});
      worst_cost = std::max(worst_cost, cost_ratio);
      worst_time = std::max(worst_time, time_ratio);
      if (ratios[j] >= 1.5) {
        paper_range_cost = std::max(paper_range_cost, cost_ratio);
        paper_range_time = std::max(paper_range_time, time_ratio);
      }
    }
    std::printf("N = %u tasks\n%s", ns[k], table.render().c_str());
    if (fix_u) {
      std::printf(
          "worst-case: cost %.3fx, time %.3fx over the full sweep; "
          "%.3fx / %.3fx for R/U >= 1.5  (paper: ~1.33x / ~1.67x — the\n"
          "unit-fragmentation bound ceil(R/U)/(R/U), which our R/U = 1.5 "
          "point reproduces exactly)\n\n",
          worst_cost, worst_time, paper_range_cost, paper_range_time);
    } else {
      std::printf(
          "worst-case: cost %.3fx, time %.3fx  "
          "(paper: wide deviation expected for large U/R)\n\n",
          worst_cost, worst_time);
    }
  }
  series_written(fix_u ? "fig2.csv" : "fig3.csv");
}

// --- Fig. 4 and Observation 2: prediction error on replayed stages ---------

/// A ground-truth run with the whole 12-instance site from t = 0.
sim::RunResult full_site_run(const dag::Workflow& wf,
                             const sim::CloudConfig& cloud,
                             std::uint64_t seed) {
  policies::StaticPolicy full_site(12, "full-site");
  sim::RunOptions options;
  options.seed = seed;
  options.initial_instances = 12;
  return sim::simulate(wf, full_site, cloud, options);
}

/// Per-task actual execution times of a full-site run, indexed by TaskId.
std::vector<double> actual_exec_times(const dag::Workflow& wf,
                                      const sim::CloudConfig& cloud,
                                      std::uint64_t seed) {
  const sim::RunResult truth = full_site_run(wf, cloud, seed);
  std::vector<double> actual(wf.task_count());
  for (dag::TaskId t = 0; t < wf.task_count(); ++t) {
    actual[t] = truth.task_records[t].exec_time;
  }
  return actual;
}

/// Replays every stage with >= 2 tasks in `orders` random task orders, stage
/// s seeded with derive_seed(seed_root, seed_base + s), and hands each
/// stage's replays to `visit(stage, replays)`.
template <typename Visit>
void replay_multi_task_stages(const dag::Workflow& wf,
                              const std::vector<double>& actual,
                              std::uint32_t orders, std::uint64_t seed_root,
                              std::uint64_t seed_base, Visit&& visit) {
  for (const dag::StageSpec& stage : wf.stages()) {
    if (wf.stage_tasks(stage.id).size() < 2) continue;
    visit(stage.id, exp::replay_stage_random_orders(
                        wf, stage.id, actual, orders,
                        util::derive_seed(seed_root, seed_base + stage.id)));
  }
}

struct ClassAccumulator {
  util::CdfBuilder errors;       // true error (s) or relative true error
  util::RunningStats abs_error;  // |error|
  std::uint32_t stages = 0;
};

struct Fig4Workflow {
  std::map<dag::StageClass, ClassAccumulator> by_class;
  /// Per (stage, repetition): max - min of the per-order mean |error|.
  std::vector<double> order_spread;
};

void fig4() {
  constexpr std::uint32_t kRepetitions = 3;
  constexpr std::uint32_t kOrders = 5;
  const auto profiles = workload::table1_profiles();
  std::vector<Fig4Workflow> acc(profiles.size());
  util::parallel_for(profiles.size(), [&](std::size_t w) {
    const dag::Workflow wf = workload::make_workflow(profiles[w], 7);
    const auto stage_summaries = dag::summarize_stages(wf);
    for (std::uint32_t rep = 0; rep < kRepetitions; ++rep) {
      const std::vector<double> actual = actual_exec_times(
          wf, exp::paper_cloud(900.0), util::derive_seed(1234, w * 100 + rep));
      replay_multi_task_stages(
          wf, actual, kOrders, 99, w * 1000 + rep * 10,
          [&](dag::StageId stage,
              const std::vector<exp::StageReplay>& replays) {
            // Classify by the declared (reference) stage mean so the class
            // is stable across repetitions.
            const dag::StageClass cls = dag::classify_stage(
                stage_summaries[stage].mean_ref_exec_seconds);
            const bool relative = cls == dag::StageClass::Long;
            ClassAccumulator& ca = acc[w].by_class[cls];
            ca.stages += rep == 0 ? 1 : 0;
            std::vector<double> order_means;
            for (const exp::StageReplay& replay : replays) {
              util::RunningStats order_abs;
              for (std::size_t i = 0; i < replay.actual.size(); ++i) {
                const double err =
                    relative ? metrics::relative_true_error(
                                   replay.predicted_ready[i], replay.actual[i])
                             : metrics::true_error(replay.predicted_ready[i],
                                                   replay.actual[i]);
                ca.errors.add(err);
                ca.abs_error.add(std::abs(err));
                order_abs.add(std::abs(err));
              }
              if (!order_abs.empty()) order_means.push_back(order_abs.mean());
            }
            if (order_means.size() >= 2) {
              const auto [lo, hi] =
                  std::minmax_element(order_means.begin(), order_means.end());
              acc[w].order_spread.push_back(*hi - *lo);
            }
          });
    }
  });

  std::printf(
      "Figure 4: task-performance prediction error by workflow and stage "
      "class\n(short/medium: true error in seconds; long: relative true "
      "error)\n\n");
  util::TextTable table;
  table.set_header({"Workflow", "Class", "Stages", "Samples", "Mean|err|",
                    "P50 err", "P10 err", "P90 err", "within band"});
  util::CsvWriter csv(bench::results_dir() + "/fig4.csv");
  csv.write_row({"workflow", "class", "stages", "samples", "mean_abs_error",
                 "p50", "p10", "p90", "fraction_within_band", "band"});
  // The full CDF curves (the actual Figure 4 series): true error on
  // [-10, 10] s for short/medium stages, relative true error on [-1, 1] for
  // long stages, 81 grid points each.
  util::CsvWriter curves(bench::results_dir() + "/fig4_cdf.csv");
  curves.write_row({"workflow", "class", "x", "cdf"});
  // The paper reports per-task averages, so the headline aggregates are
  // sample-weighted across workflows.
  struct ClassTotal {
    double abs_sum = 0.0;
    double within_sum = 0.0;
    std::size_t samples = 0;
  };
  ClassTotal totals[3];
  std::uint32_t stage_total = 0;
  for (std::size_t w = 0; w < profiles.size(); ++w) {
    for (const auto& [cls, ca] : acc[w].by_class) {
      if (ca.errors.empty()) continue;
      const bool relative = cls == dag::StageClass::Long;
      const double band = relative ? 0.15 : 1.0;  // 15 % / 1 second
      const double within = ca.errors.fraction_within(band);
      table.add_row({profiles[w].name, dag::stage_class_name(cls),
                     std::to_string(ca.stages),
                     std::to_string(ca.errors.count()),
                     util::fmt(ca.abs_error.mean(), 3) + (relative ? "" : " s"),
                     util::fmt(ca.errors.quantile(0.5), 3),
                     util::fmt(ca.errors.quantile(0.1), 3),
                     util::fmt(ca.errors.quantile(0.9), 3),
                     util::fmt(100.0 * within, 1) + "% of " +
                         (relative ? "15%" : "1s")});
      csv.write_row({profiles[w].name, dag::stage_class_name(cls),
                     std::to_string(ca.stages),
                     std::to_string(ca.errors.count()),
                     util::fmt(ca.abs_error.mean(), 4),
                     util::fmt(ca.errors.quantile(0.5), 4),
                     util::fmt(ca.errors.quantile(0.1), 4),
                     util::fmt(ca.errors.quantile(0.9), 4),
                     util::fmt(within, 4), relative ? "0.15rel" : "1s"});
      for (const auto& [x, p] :
           ca.errors.curve(relative ? -1.0 : -10.0, relative ? 1.0 : 10.0,
                           81)) {
        curves.write_row({profiles[w].name, dag::stage_class_name(cls),
                          util::fmt(x, 4), util::fmt(p, 5)});
      }
      stage_total += ca.stages;
      ClassTotal& total = totals[static_cast<int>(cls)];
      total.abs_sum += ca.abs_error.mean() * ca.abs_error.count();
      total.within_sum += within * ca.errors.count();
      total.samples += ca.errors.count();
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("multi-task stages covered: %u (paper: 45)\n", stage_total);
  const ClassTotal& ts = totals[static_cast<int>(dag::StageClass::Short)];
  const ClassTotal& tm = totals[static_cast<int>(dag::StageClass::Medium)];
  const ClassTotal& tl = totals[static_cast<int>(dag::StageClass::Long)];
  if (ts.samples) {
    std::printf(
        "short:  mean |err| %.3f s, %.1f%% within 1 s   (paper: <=0.1 s, "
        "93.2%%)\n",
        ts.abs_sum / ts.samples, 100.0 * ts.within_sum / ts.samples);
  }
  if (tm.samples) {
    std::printf(
        "medium: mean |err| %.3f s, %.1f%% within 1 s   (paper: <=2.15 s, "
        "79.4%%)\n",
        tm.abs_sum / tm.samples, 100.0 * tm.within_sum / tm.samples);
  }
  if (tl.samples) {
    std::printf(
        "long:   mean |err| %.1f%%, %.1f%% within 15%%   (paper: <=13.1%%, "
        "83.2%%)\n",
        100.0 * tl.abs_sum / tl.samples, 100.0 * tl.within_sum / tl.samples);
  }
  // Order sensitivity (§IV-D's "error difference" across task orders).
  util::CdfBuilder spreads;
  for (const Fig4Workflow& a : acc) {
    for (double s : a.order_spread) spreads.add(s);
  }
  if (!spreads.empty()) {
    std::printf(
        "order sensitivity: median spread of per-order mean |err| = %.3f, "
        "p90 = %.3f\n",
        spreads.quantile(0.5), spreads.quantile(0.9));
  }
  series_written("fig4.csv");
}

// --- Figs. 5/6: the §IV-C settings matrix -----------------------------------

/// One run of the matrix, read by both figures.
struct Matrix {
  exp::Study study;
  std::vector<exp::StudyCell> cells;

  const metrics::CellStats& stats(std::size_t w, std::size_t p,
                                  std::size_t u) const {
    return cells[study.cell_index(w, u, p)].stats;
  }
};

util::TextTable policy_by_unit_table() {
  util::TextTable table;
  table.set_header({"policy \\ u", "1 min", "15 min", "30 min", "60 min"});
  return table;
}

void fig5(const Matrix& m) {
  const auto policies = exp::all_policies();
  const auto units = exp::paper_charging_units();
  util::CsvWriter csv(bench::results_dir() + "/fig5.csv");
  csv.write_row({"workflow", "policy", "charging_unit_s", "cost_mean",
                 "cost_std", "makespan_mean_s", "utilization_mean"});
  std::printf("Figure 5: resource cost in charging units (mean ± std)\n\n");
  double ratio_min = 1e18, ratio_max = 0.0;  // full-site / wire
  double other_min = 1e18, other_max = 0.0;  // any baseline / wire
  std::uint32_t wire_cheapest = 0, cell_count = 0;
  for (std::size_t w = 0; w < m.study.workloads.size(); ++w) {
    util::TextTable table = policy_by_unit_table();
    for (std::size_t p = 0; p < policies.size(); ++p) {
      std::vector<std::string> row{exp::policy_label(policies[p])};
      for (std::size_t u = 0; u < units.size(); ++u) {
        const metrics::CellStats& stats = m.stats(w, p, u);
        row.push_back(util::fmt_mean_std(stats.cost_units.mean(),
                                         stats.cost_units.stddev(), 1));
        csv.write_row({m.study.workloads[w].name(),
                       exp::policy_label(policies[p]),
                       util::fmt(units[u], 0),
                       util::fmt(stats.cost_units.mean(), 3),
                       util::fmt(stats.cost_units.stddev(), 3),
                       util::fmt(stats.makespan_seconds.mean(), 1),
                       util::fmt(stats.utilization.mean(), 4)});
      }
      table.add_row(std::move(row));
    }
    std::printf("%s\n%s\n", m.study.workloads[w].name().c_str(),
                table.render().c_str());
    // Cost ratios vs wire (wire is the last policy in paper order).
    const std::size_t wire_row = policies.size() - 1;
    for (std::size_t u = 0; u < units.size(); ++u) {
      const double wire_cost = m.stats(w, wire_row, u).cost_units.mean();
      ++cell_count;
      bool cheapest = true;
      for (std::size_t p = 0; p < wire_row; ++p) {
        const double ratio = m.stats(w, p, u).cost_units.mean() / wire_cost;
        other_min = std::min(other_min, ratio);
        other_max = std::max(other_max, ratio);
        if (p == 0) {  // full-site
          ratio_min = std::min(ratio_min, ratio);
          ratio_max = std::max(ratio_max, ratio);
        }
        if (ratio < 1.0) cheapest = false;
      }
      if (cheapest) ++wire_cheapest;
    }
  }
  std::printf(
      "wire is the cheapest policy in %u / %u cells\n"
      "full-site / wire cost ratio: %.2fx – %.2fx   (paper: 4.93x – "
      "14.66x)\n"
      "any baseline / wire ratio:   %.2fx – %.2fx   (paper: 0.93x – "
      "14.66x)\n",
      wire_cheapest, cell_count, ratio_min, ratio_max, other_min, other_max);
  series_written("fig5.csv");
}

void fig6(const Matrix& m) {
  const auto policies = exp::all_policies();
  const auto units = exp::paper_charging_units();
  util::CsvWriter csv(bench::results_dir() + "/fig6.csv");
  csv.write_row({"workflow", "policy", "charging_unit_s", "relative_time_mean",
                 "relative_time_std", "makespan_mean_s"});
  std::printf(
      "Figure 6: execution time relative to the best setting "
      "(mean ± std)\n\n");
  double wire_slow_min = 1e18, wire_slow_max = 0.0;
  double wire_1min_min = 1e18, wire_1min_max = 0.0;
  std::uint32_t wire_within_2x = 0, wire_cells = 0;
  for (std::size_t w = 0; w < m.study.workloads.size(); ++w) {
    double best = 1e300;
    for (std::size_t p = 0; p < policies.size(); ++p) {
      for (std::size_t u = 0; u < units.size(); ++u) {
        best = std::min(best, m.stats(w, p, u).makespan_seconds.mean());
      }
    }
    util::TextTable table = policy_by_unit_table();
    for (std::size_t p = 0; p < policies.size(); ++p) {
      std::vector<std::string> row{exp::policy_label(policies[p])};
      for (std::size_t u = 0; u < units.size(); ++u) {
        const metrics::CellStats& stats = m.stats(w, p, u);
        const double rel = stats.makespan_seconds.mean() / best;
        const double rel_std = stats.makespan_seconds.stddev() / best;
        row.push_back(util::fmt_mean_std(rel, rel_std, 2));
        csv.write_row({m.study.workloads[w].name(),
                       exp::policy_label(policies[p]),
                       util::fmt(units[u], 0), util::fmt(rel, 4),
                       util::fmt(rel_std, 4),
                       util::fmt(stats.makespan_seconds.mean(), 1)});
        if (policies[p] == exp::PolicyKind::Wire) {
          wire_slow_min = std::min(wire_slow_min, rel);
          wire_slow_max = std::max(wire_slow_max, rel);
          ++wire_cells;
          if (rel <= 2.0) ++wire_within_2x;
          if (u == 0) {
            wire_1min_min = std::min(wire_1min_min, rel);
            wire_1min_max = std::max(wire_1min_max, rel);
          }
        }
      }
      table.add_row(std::move(row));
    }
    std::printf("%s\n%s\n", m.study.workloads[w].name().c_str(),
                table.render().c_str());
  }
  std::printf(
      "wire slowdown overall: %.2fx – %.2fx     (paper: 1.02x – 3.57x)\n"
      "wire slowdown at u = 1 min: %.2fx – %.2fx (paper: 1.02x – 1.65x)\n"
      "wire cells within 2x of best: %u / %u     (paper: 83.75%% of runs)\n",
      wire_slow_min, wire_slow_max, wire_1min_min, wire_1min_max,
      wire_within_2x, wire_cells);
  series_written("fig6.csv");
}

// --- Observation 2 (§II-B) --------------------------------------------------

constexpr double kRunSigma = 0.25;
constexpr std::uint32_t kNewRuns = 5;

struct WorkloadOutcome {
  std::string name;
  util::CdfBuilder history_err;  // |rel error| per task, across new runs
  util::CdfBuilder online_err;
  metrics::CellStats wire_online;
  metrics::CellStats wire_history;
};

WorkloadOutcome motivation_study(const workload::WorkflowProfile& profile,
                                 std::uint64_t stream) {
  WorkloadOutcome out;
  out.name = profile.name;
  const dag::Workflow wf = workload::make_workflow(profile, 7);
  sim::CloudConfig truth_config = exp::paper_cloud(900.0);
  truth_config.variability.run_speed_sigma = kRunSigma;

  // The "previous run": a full-site execution whose archive feeds history.
  const auto archive =
      std::make_shared<const std::vector<predict::HistoryRecord>>(
          predict::history_from_records(
              full_site_run(wf, truth_config, util::derive_seed(2024, stream))
                  .task_records));
  predict::HistoryEstimator history(wf, *archive);
  sim::MonitorSnapshot blank;
  blank.tasks.assign(wf.task_count(), sim::TaskObservation{});
  blank.incomplete_tasks = static_cast<std::uint32_t>(wf.task_count());

  for (std::uint32_t run = 0; run < kNewRuns; ++run) {
    // (a) Prediction accuracy on a fresh run: from history, and online
    // (final-before-run predictions) over every multi-task stage.
    const std::vector<double> actual = actual_exec_times(
        wf, truth_config, util::derive_seed(3033, stream * 100 + run));
    for (dag::TaskId t = 0; t < wf.task_count(); ++t) {
      out.history_err.add(
          std::abs(history.estimate_exec(t, blank) - actual[t]) / actual[t]);
    }
    replay_multi_task_stages(
        wf, actual, 1, 4044, stream * 1000 + run * 20,
        [&](dag::StageId, const std::vector<exp::StageReplay>& replays) {
          for (const exp::StageReplay& replay : replays) {
            for (std::size_t i = 0; i < replay.actual.size(); ++i) {
              out.online_err.add(
                  std::abs(replay.predicted_ready[i] - replay.actual[i]) /
                  replay.actual[i]);
            }
          }
        });

    // (b) Policy outcomes head to head at u = 15 min.
    sim::RunOptions run_options;
    run_options.seed = util::derive_seed(5055, stream * 100 + run);
    run_options.initial_instances = 1;
    core::WireController online;
    out.wire_online.add(sim::simulate(wf, online, truth_config, run_options));
    core::WireOptions history_options;
    history_options.history = archive;
    core::WireController hist(history_options);
    out.wire_history.add(sim::simulate(wf, hist, truth_config, run_options));
  }
  return out;
}

void motivation() {
  const std::vector<workload::WorkflowProfile> profiles = {
      workload::epigenomics_profile(workload::Scale::Small),
      workload::tpch1_profile(workload::Scale::Large),
      workload::tpch6_profile(workload::Scale::Large),
      workload::pagerank_profile(workload::Scale::Small),
  };
  std::vector<WorkloadOutcome> outcomes(profiles.size());
  util::parallel_for(profiles.size(), [&](std::size_t i) {
    outcomes[i] = motivation_study(profiles[i], i);
  });

  std::printf(
      "Observation 2 (§II-B): across-run variability vs prediction "
      "strategy\n(per-run speed factor lognormal sigma = %.2f; %u fresh runs "
      "per workload)\n\n",
      kRunSigma, kNewRuns);
  util::TextTable table;
  table.set_header({"workload", "history med|rel err|", "online med|rel err|",
                    "history p90", "online p90", "wire cost", "wire-hist cost",
                    "wire time(s)", "wire-hist time(s)"});
  util::CsvWriter csv(bench::results_dir() + "/motivation.csv");
  csv.write_row({"workload", "history_median_rel_err", "online_median_rel_err",
                 "history_p90", "online_p90", "wire_cost_mean",
                 "wire_history_cost_mean", "wire_makespan_mean",
                 "wire_history_makespan_mean"});
  for (const WorkloadOutcome& o : outcomes) {
    table.add_row({o.name,
                   util::fmt(100.0 * o.history_err.quantile(0.5), 1) + "%",
                   util::fmt(100.0 * o.online_err.quantile(0.5), 1) + "%",
                   util::fmt(100.0 * o.history_err.quantile(0.9), 1) + "%",
                   util::fmt(100.0 * o.online_err.quantile(0.9), 1) + "%",
                   util::fmt(o.wire_online.cost_units.mean(), 1),
                   util::fmt(o.wire_history.cost_units.mean(), 1),
                   util::fmt(o.wire_online.makespan_seconds.mean(), 0),
                   util::fmt(o.wire_history.makespan_seconds.mean(), 0)});
    csv.write_row({o.name, util::fmt(o.history_err.quantile(0.5), 4),
                   util::fmt(o.online_err.quantile(0.5), 4),
                   util::fmt(o.history_err.quantile(0.9), 4),
                   util::fmt(o.online_err.quantile(0.9), 4),
                   util::fmt(o.wire_online.cost_units.mean(), 3),
                   util::fmt(o.wire_history.cost_units.mean(), 3),
                   util::fmt(o.wire_online.makespan_seconds.mean(), 1),
                   util::fmt(o.wire_history.makespan_seconds.mean(), 1)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Reading: history's error tracks the run-to-run speed gap; the online\n"
      "policies' error stays at the within-run noise floor — the paper's\n"
      "case for predicting \"the upcoming loads with online information\".\n");
  series_written("motivation.csv");
}

}  // namespace

int main() {
  table1();
  steering_figure(/*fix_u=*/true);
  steering_figure(/*fix_u=*/false);
  fig4();
  Matrix matrix;
  std::vector<dag::Workflow> workflows;
  for (const workload::WorkflowProfile& profile : workload::table1_profiles()) {
    workflows.push_back(workload::make_workflow(profile, 7));
  }
  matrix.study = exp::paper_study(std::move(workflows), /*repetitions=*/3);
  matrix.cells = matrix.study.run();
  fig5(matrix);
  fig6(matrix);
  motivation();
  return 0;
}
