// Study bench: the eight comparisons beyond Figs. 5/6, each one or more
// exp::Study run through the paired-seed runner, so every variant of a cell
// runs on the seeds of the study's variant 0 and its paired Δ isolates the
// variant:
//
//   ablation    WIRE design choices (DESIGN.md) on TPCH-1 L / PageRank L at
//               u in {1, 15} min, against the paper configuration:
//               median-vs-mean estimators, OGD (policy 5) off, lookahead off
//               (reactive load, same steering rules), clairvoyant oracle
//               estimates, reclaiming scheduled drains, the Condor
//               first-five patch off, and the restart threshold around 0.2u
//   generalize  the §IV-C comparison on the Pegasus shapes the paper's
//               characterization reference (Juve et al.) profiles but the
//               paper does not run: Montage, CyberShake, LIGO Inspiral
//   faults      crash rate x policy on Table-I workflows (30 s revocation
//               notice)
//   deadline    the cost of a latency SLO (a Jockey reconstruction): a
//               deadline sweep with online and history estimates against
//               plain WIRE (variant 0) at u = 1 min
//   clustering  horizontal clustering factor x charging unit on Genome S
//               under WIRE (Fig. 3's lever: clustering lengthens tasks)
//   memory      instance memory x reservation sizing on Genome S / TPCH-6 S:
//               OOM-retry churn and reserved MB·s against percentile sizing
//   checkpoint  checkpoint interval policy x crash rate on PageRank L: waste
//               (lost work + checkpoint I/O) against no checkpointing
//   budget      the cost-vs-deadline frontier of a spend ceiling on
//               Genome S / PageRank L against unconstrained WIRE
//
// Each study writes its CSV series and BENCH_<study>.json (per-cell means
// and the paired Δ against variant 0: mean, stddev, 95% t-interval) to
// bench_results/. The studies also check the invariants below; the bench
// prints each violation and exits 1 if there is any.
//
//   faults      no run leaves a task incomplete or quarantined (only crashes
//               are injected, and a crash-killed attempt retries)
//   memory      reserved >= used > 0 MB·s in every run; every run at 2x
//               provisioning completes with nothing quarantined; every
//               under-provisioned (< 1x) cell records an OOM kill
//   checkpoint  on 8 x 4 x 600 s linear tasks at 2 crashes/h, Young/Daly
//               commits a checkpoint and wastes less than static-600
//   budget      a zero budget reproduces plain WIRE run for run, and at a
//               1.2x budget a looser deadline never costs over 5% more
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/controller.h"
#include "dag/clustering.h"
#include "exp/runner.h"
#include "exp/settings.h"
#include "policies/baselines.h"
#include "policies/budget.h"
#include "policies/deadline.h"
#include "predict/history.h"
#include "sim/driver.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/generators.h"
#include "workload/pegasus_extra.h"
#include "workload/profiles.h"

namespace {

using namespace wire;

/// Checks that failed so far; main exits 1 if there is any.
std::uint32_t failures = 0;

void check(bool ok, const std::string& what) {
  if (ok) return;
  std::printf("FAILED: %s\n", what.c_str());
  ++failures;
}

dag::Workflow table1_dag(const workload::WorkflowProfile& profile) {
  return workload::make_workflow(profile, 7);
}

std::vector<sim::CloudConfig> paper_clouds(const std::vector<double>& units) {
  std::vector<sim::CloudConfig> clouds;
  for (double u : units) clouds.push_back(exp::paper_cloud(u));
  return clouds;
}

bench::JsonFields delta_json(const exp::PairedDelta& d) {
  return {{"mean", d.mean}, {"stddev", d.stddev}, {"low", d.low()},
          {"high", d.high()}};
}

/// A study and its cells.
struct Result {
  exp::Study study;
  std::vector<exp::StudyCell> cells;
};

/// A per-run figure of merit.
using Metric = double (*)(const sim::RunResult&);

/// The mean of `metric` over the runs of a cell.
double mean_over(const exp::StudyCell& cell, Metric metric) {
  util::RunningStats stats;
  for (const sim::RunResult& run : cell.runs) stats.add(metric(run));
  return stats.mean();
}

double crashes(const sim::RunResult& r) { return r.instance_crashes; }
double oom_kills(const sim::RunResult& r) { return r.oom_kills; }
double reserved_mb_s(const sim::RunResult& r) {
  return r.mem_reserved_mb_seconds;
}
double used_mb_s(const sim::RunResult& r) { return r.mem_used_mb_seconds; }
double quarantined(const sim::RunResult& r) {
  return r.quarantined_tasks.size();
}
/// Checkpointing's figure of merit: work forfeited at kills plus the slot
/// time checkpoint writes stall.
double waste_s(const sim::RunResult& r) {
  return r.lost_work_seconds + r.checkpoint_io_slot_seconds;
}

/// A metric a study reports as a paired Δ against variant 0, next to
/// makespan and cost.
struct Merit {
  const char* label;  // table column
  const char* key;    // JSON key stem
  Metric metric;
  int digits;
};

/// Runs of a cell that left a task incomplete or quarantined.
std::uint32_t incomplete_runs(const exp::StudyCell& cell) {
  std::uint32_t n = 0;
  for (const sim::RunResult& run : cell.runs) {
    n += !run.quarantined_tasks.empty() ||
         std::any_of(run.task_records.begin(), run.task_records.end(),
                     [](const sim::TaskRuntime& task) {
                       return task.phase != sim::TaskPhase::Completed;
                     });
  }
  return n;
}

/// Prints the paired Δs of a study's results (one or more exp::Study on one
/// seed root), with `merits` next to makespan and cost, and writes them to
/// BENCH_<name>.json; the study's own series is <name>.csv.
void report(const std::string& name, const std::vector<Result>& results,
            const std::vector<Merit>& merits = {}) {
  util::TextTable table;
  std::vector<std::string> header{"workload", "u (min)", "crashes/h",
                                  "mem (MB)", "variant", "Δ makespan (s)",
                                  "Δ cost (units)"};
  for (const Merit& m : merits) header.push_back(std::string("Δ ") + m.label);
  table.set_header(std::move(header));
  std::vector<bench::JsonFields> json;
  for (const auto& [study, cells] : results) {
    for (const exp::StudyCell& cell : cells) {
      const dag::Workflow& wf = study.workloads[cell.workload];
      const sim::CloudConfig& cloud = study.clouds[cell.cloud];
      const std::string& variant = study.variants[cell.variant].label;
      json.push_back(
          {{"workload", wf.name()},
           {"tasks", static_cast<std::uint64_t>(wf.task_count())},
           {"charging_unit_s", cloud.charging_unit_seconds},
           {"crash_rate_per_hour", cloud.faults.crash_rate_per_hour},
           {"instance_mem_mb", cloud.memory.instance_mem_mb},
           {"variant", variant},
           {"runs", static_cast<std::uint64_t>(cell.stats.runs())},
           {"makespan_mean_s", cell.stats.makespan_seconds.mean()},
           {"cost_mean_units", cell.stats.cost_units.mean()}});
      if (cell.variant == 0) continue;
      const exp::PairedDelta& dm = cell.makespan_delta;
      const exp::PairedDelta& dc = cell.cost_delta;
      json.back().emplace_back("makespan_delta_s", delta_json(dm));
      json.back().emplace_back("cost_delta_units", delta_json(dc));
      std::vector<std::string> row{
          wf.name(), util::fmt(cloud.charging_unit_seconds / 60, 0),
          util::fmt(cloud.faults.crash_rate_per_hour, 1),
          util::fmt(cloud.memory.instance_mem_mb, 0), variant,
          util::fmt_mean_std(dm.mean, dm.half_width, 0),
          util::fmt_mean_std(dc.mean, dc.half_width, 1)};
      const exp::StudyCell& base =
          cells[study.cell_index(cell.workload, cell.cloud, 0)];
      for (const Merit& m : merits) {
        std::vector<double> differences;
        for (std::size_t r = 0; r < cell.runs.size(); ++r) {
          differences.push_back(m.metric(cell.runs[r]) -
                                m.metric(base.runs[r]));
        }
        const exp::PairedDelta d = exp::paired_delta(differences);
        json.back().emplace_back(std::string(m.key) + "_delta", delta_json(d));
        row.push_back(util::fmt_mean_std(d.mean, d.half_width, m.digits));
      }
      table.add_row(std::move(row));
    }
  }
  const exp::Study& study = results[0].study;
  if (table.row_count() > 0) {
    std::printf("Paired Δ against %s (mean ± 95%% t-interval)\n%s\n",
                study.variants[0].label.c_str(), table.render().c_str());
  }
  bench::write_study_json(name, /*smoke=*/false,
                          {{"seed_root", study.seed_root},
                           {"repetitions", study.repetitions},
                           {"baseline", study.variants[0].label}},
                          json, "paired deltas");
  std::printf("series written to %s/%s.csv\n\n", bench::results_dir().c_str(),
              name.c_str());
}

// --- Ablation ---------------------------------------------------------------

std::vector<Result> ablation() {
  exp::Study study;
  study.workloads = {
      table1_dag(workload::tpch1_profile(workload::Scale::Large)),
      table1_dag(workload::pagerank_profile(workload::Scale::Large))};
  study.clouds = paper_clouds({60.0, 900.0});
  study.repetitions = 5;
  study.seed_root = 31;
  const auto add = [&](const char* label, const core::WireOptions& wire,
                       double restart_fraction = 0.2,
                       std::uint32_t first_fire = 5) {
    study.variants.push_back(
        {label, [wire] { return std::make_unique<core::WireController>(wire); },
         [=](sim::CloudConfig& cloud, sim::RunOptions&) {
           cloud.restart_cost_fraction = restart_fraction;
           cloud.first_fire_priority = first_fire;
         }});
  };
  core::WireOptions mean, no_ogd, no_lookahead, oracle, reclaim;
  mean.predictor.use_mean = true;
  no_ogd.predictor.disable_ogd = true;
  no_lookahead.disable_lookahead = true;
  oracle.oracle_estimator = true;
  reclaim.reclaim_draining = true;
  add("baseline", {});
  add("mean-estimators", mean);
  add("no-ogd", no_ogd);
  add("no-lookahead", no_lookahead);
  add("oracle-estimator", oracle);
  add("reclaim-draining", reclaim);
  add("no-first-five", {}, 0.2, 0);
  add("restart-0.05u", {}, 0.05);
  add("restart-0.5u", {}, 0.5);
  auto cells = study.run();

  std::printf(
      "Ablation: WIRE design choices (u in {1, 15} min, %u repetitions)\n\n",
      study.repetitions);
  util::CsvWriter csv(bench::results_dir() + "/ablation.csv");
  csv.write_row({"workload", "variant", "charging_unit_s", "cost_mean",
                 "cost_std", "makespan_mean_s", "utilization_mean",
                 "restarts_mean"});
  for (std::size_t w = 0; w < study.workloads.size(); ++w) {
    for (std::size_t u = 0; u < study.clouds.size(); ++u) {
      util::TextTable table;
      table.set_header({"variant", "cost (units)", "makespan (s)", "util",
                        "restarts"});
      for (std::size_t v = 0; v < study.variants.size(); ++v) {
        const metrics::CellStats& s = cells[study.cell_index(w, u, v)].stats;
        table.add_row(
            {study.variants[v].label,
             util::fmt_mean_std(s.cost_units.mean(), s.cost_units.stddev(), 1),
             util::fmt_mean_std(s.makespan_seconds.mean(),
                                s.makespan_seconds.stddev(), 0),
             util::fmt(s.utilization.mean(), 2),
             util::fmt(s.restarts.mean(), 1)});
        csv.write_row({study.workloads[w].name(), study.variants[v].label,
                       util::fmt(study.clouds[u].charging_unit_seconds, 0),
                       util::fmt(s.cost_units.mean(), 3),
                       util::fmt(s.cost_units.stddev(), 3),
                       util::fmt(s.makespan_seconds.mean(), 1),
                       util::fmt(s.utilization.mean(), 4),
                       util::fmt(s.restarts.mean(), 2)});
      }
      std::printf("%s, u = %.0f min\n%s\n",
                  study.workloads[w].name().c_str(),
                  study.clouds[u].charging_unit_seconds / 60.0,
                  table.render().c_str());
    }
  }
  return {{std::move(study), std::move(cells)}};
}

// --- Generalization ----------------------------------------------------------

std::vector<Result> generalize() {
  exp::Study study = exp::paper_study(
      {workload::montage(100, 7), workload::cybershake(400, 7),
       workload::ligo(100, 2, 7)},
      /*repetitions=*/3);
  study.clouds = paper_clouds({60.0, 900.0});
  study.seed_root = 808;
  auto cells = study.run();

  std::printf(
      "Generalization: the §IV-C comparison on Montage / CyberShake / LIGO\n"
      "(%u repetitions; u in {1, 15} min)\n\n",
      study.repetitions);
  util::CsvWriter csv(bench::results_dir() + "/generalize.csv");
  csv.write_row({"workflow", "policy", "charging_unit_s", "cost_mean",
                 "cost_std", "makespan_mean_s", "utilization_mean"});
  for (std::size_t w = 0; w < study.workloads.size(); ++w) {
    const dag::Workflow& wf = study.workloads[w];
    std::printf("%s (%zu tasks, %zu stages)\n", wf.name().c_str(),
                wf.task_count(), wf.stage_count());
    util::TextTable table;
    table.set_header({"policy", "u=1min cost", "u=1min time(s)",
                      "u=15min cost", "u=15min time(s)"});
    for (std::size_t p = 0; p < study.variants.size(); ++p) {
      std::vector<std::string> row{study.variants[p].label};
      for (std::size_t u = 0; u < study.clouds.size(); ++u) {
        const metrics::CellStats& s = cells[study.cell_index(w, u, p)].stats;
        row.push_back(
            util::fmt_mean_std(s.cost_units.mean(), s.cost_units.stddev(), 1));
        row.push_back(util::fmt(s.makespan_seconds.mean(), 0));
        csv.write_row({wf.name(), study.variants[p].label,
                       util::fmt(study.clouds[u].charging_unit_seconds, 0),
                       util::fmt(s.cost_units.mean(), 3),
                       util::fmt(s.cost_units.stddev(), 3),
                       util::fmt(s.makespan_seconds.mean(), 1),
                       util::fmt(s.utilization.mean(), 4)});
      }
      table.add_row(std::move(row));
    }
    std::printf("%s\n", table.render().c_str());
  }
  return {{std::move(study), std::move(cells)}};
}

// --- Faults ------------------------------------------------------------------

std::vector<Result> faults() {
  exp::Study study = exp::paper_study(
      {table1_dag(workload::epigenomics_profile(workload::Scale::Small)),
       table1_dag(workload::tpch1_profile(workload::Scale::Small))},
      /*repetitions=*/3);
  study.clouds.clear();
  std::vector<std::string> header{"policy \\ rate"};
  for (double rate : {0.0, 0.5, 1.0, 2.0, 4.0}) {
    sim::CloudConfig cloud = exp::paper_cloud(900.0);
    cloud.faults.crash_rate_per_hour = rate;
    cloud.faults.crash_notice_seconds = 30.0;
    study.clouds.push_back(cloud);
    header.push_back(util::fmt(rate, 1) + "/h");
  }
  study.seed_root = 2203;
  auto cells = study.run();

  std::printf(
      "Crash-rate degradation sweep: %zu workflows x %zu policies x %zu "
      "rates, %u repetitions (seed root %llu)\n\n",
      study.workloads.size(), study.variants.size(), study.clouds.size(),
      study.repetitions, static_cast<unsigned long long>(study.seed_root));
  util::CsvWriter csv(bench::results_dir() + "/faults.csv");
  csv.write_row({"workflow", "policy", "crash_rate_per_hour", "reps",
                 "makespan_mean_s", "makespan_stddev_s", "cost_mean_units",
                 "crashes_mean", "restarts_mean", "wasted_slot_s_mean",
                 "incomplete_runs"});
  for (std::size_t w = 0; w < study.workloads.size(); ++w) {
    util::TextTable table;
    table.set_header(header);
    for (std::size_t p = 0; p < study.variants.size(); ++p) {
      std::vector<std::string> row{study.variants[p].label};
      for (std::size_t r = 0; r < study.clouds.size(); ++r) {
        const exp::StudyCell& cell = cells[study.cell_index(w, r, p)];
        row.push_back(util::fmt(cell.stats.cost_units.mean(), 0) + "u / " +
                      util::fmt(cell.stats.makespan_seconds.mean(), 0) + "s");
        csv.write_row(
            {study.workloads[w].name(), study.variants[p].label,
             util::fmt(study.clouds[r].faults.crash_rate_per_hour, 2),
             std::to_string(study.repetitions),
             util::fmt(cell.stats.makespan_seconds.mean(), 1),
             util::fmt(cell.stats.makespan_seconds.stddev(), 1),
             util::fmt(cell.stats.cost_units.mean(), 3),
             util::fmt(mean_over(cell, crashes), 2),
             util::fmt(cell.stats.restarts.mean(), 2),
             util::fmt(mean_over(cell, [](const sim::RunResult& run) {
                         return run.wasted_slot_seconds;
                       }),
                       1),
             std::to_string(incomplete_runs(cell))});
        check(incomplete_runs(cell) == 0,
              study.workloads[w].name() + " " + study.variants[p].label +
                  ": a crashing run left a task incomplete or quarantined");
      }
      table.add_row(std::move(row));
    }
    std::printf("%s — degradation under instance crashes\n%s\n",
                study.workloads[w].name().c_str(), table.render().c_str());
  }
  std::printf("(cells: charging units / makespan)\n");
  return {{std::move(study), std::move(cells)}};
}

// --- Deadline ----------------------------------------------------------------

std::vector<Result> deadline() {
  const std::vector<std::pair<workload::WorkflowProfile, std::vector<double>>>
      sweeps = {{workload::epigenomics_profile(workload::Scale::Small),
                 {600.0, 900.0, 1500.0, 2400.0, 3600.0}},
                {workload::pagerank_profile(workload::Scale::Large),
                 {1800.0, 2700.0, 3600.0, 5400.0, 7200.0}}};
  constexpr std::uint32_t kRepetitions = 3;
  std::printf(
      "Deadline sweep: cost of a latency SLO (u = 1 min, %u repetitions; "
      "deadline 0 = plain WIRE)\n\n",
      kRepetitions);
  util::CsvWriter csv(bench::results_dir() + "/deadline.csv");
  csv.write_row({"workload", "deadline_s", "estimates", "cost_mean",
                 "makespan_mean_s", "slo_met", "peak_mean"});
  // One study per workload (the deadlines differ), on the same seeds.
  std::vector<Result> results;
  for (const auto& [profile, deadlines] : sweeps) {
    auto& [study, cells] = results.emplace_back();
    study.workloads = {table1_dag(profile)};
    study.clouds = {exp::paper_cloud(60.0)};
    study.repetitions = kRepetitions;
    study.seed_root = 909;
    // A prior full-site run supplies the Jockey-style history archive.
    policies::StaticPolicy full_site(12, "full-site");
    const sim::RunOptions prior{util::derive_seed(910, 1), 12};
    const auto archive =
        std::make_shared<const std::vector<predict::HistoryRecord>>(
            predict::history_from_records(
                sim::simulate(study.workloads[0], full_site, study.clouds[0],
                              prior)
                    .task_records));
    // Variant 0 is plain WIRE; 2i+1 and 2i+2 are deadline i with online
    // estimates and with the history archive.
    study.variants = {exp::policy_variant(exp::PolicyKind::Wire)};
    for (double d : deadlines) {
      for (const auto& history : {decltype(archive){}, archive}) {
        study.variants.push_back(
            {(history ? "history-" : "online-") + util::fmt(d, 0),
             [d, history] {
               return std::make_unique<policies::DeadlinePolicy>(d, history);
             },
             nullptr});
      }
    }
    cells = study.run();

    util::TextTable table;
    table.set_header({"deadline(s)", "online cost", "online time / met",
                      "history cost", "history time / met"});
    for (std::size_t i = 0; i <= deadlines.size(); ++i) {
      const bool wire = i == deadlines.size();  // the reference row, last
      const double d = wire ? 0.0 : deadlines[i];
      std::vector<std::string> row{wire ? "(wire)" : util::fmt(d, 0)};
      for (std::size_t h = 0; h < 2; ++h) {
        const exp::StudyCell& cell = cells[wire ? 0 : 2 * i + 1 + h];
        std::uint32_t met = 0;
        for (const sim::RunResult& run : cell.runs) met += run.makespan <= d;
        const double makespan = cell.stats.makespan_seconds.mean();
        row.push_back(util::fmt(cell.stats.cost_units.mean(), 1));
        row.push_back(util::fmt(makespan, 0) + "s " +
                      (wire ? "-"
                            : std::to_string(met) + "/" +
                                  std::to_string(kRepetitions)));
        csv.write_row(
            {profile.name, util::fmt(d, 0), h == 0 ? "online" : "history",
             util::fmt(cell.stats.cost_units.mean(), 3), util::fmt(makespan, 1),
             wire ? "-1"
                  : util::fmt(static_cast<double>(met) / kRepetitions, 2),
             util::fmt(cell.stats.peak_instances.mean(), 2)});
      }
      table.add_row(std::move(row));
    }
    std::printf("%s\n%s\n", profile.name.c_str(), table.render().c_str());
  }
  return results;
}

// --- Clustering --------------------------------------------------------------

std::vector<Result> clustering() {
  const dag::Workflow base =
      table1_dag(workload::epigenomics_profile(workload::Scale::Small));
  const std::vector<std::uint32_t> factors = {1, 4, 16};
  exp::Study study;
  for (std::uint32_t f : factors) {
    dag::ClusterOptions options;
    options.factor = f;
    options.min_stage_tasks = 8;
    study.workloads.push_back(dag::cluster_horizontal(base, options).workflow);
  }
  study.clouds = paper_clouds(exp::paper_charging_units());
  study.variants = {exp::policy_variant(exp::PolicyKind::Wire)};
  study.seed_root = 606;
  auto cells = study.run();

  std::printf(
      "Clustering x charging unit: Genome S under WIRE (%u repetitions)\n"
      "(factor 1 = unclustered; clustered jobs run members sequentially)\n\n",
      study.repetitions);
  util::CsvWriter csv(bench::results_dir() + "/clustering.csv");
  csv.write_row({"factor", "tasks", "charging_unit_s", "cost_mean",
                 "makespan_mean_s", "utilization_mean"});
  util::TextTable table;
  table.set_header({"factor", "tasks", "u=1min cost/time", "u=15min cost/time",
                    "u=30min cost/time", "u=60min cost/time"});
  for (std::size_t f = 0; f < factors.size(); ++f) {
    const std::string tasks = std::to_string(study.workloads[f].task_count());
    std::vector<std::string> row{std::to_string(factors[f]), tasks};
    for (std::size_t u = 0; u < study.clouds.size(); ++u) {
      const metrics::CellStats& s = cells[study.cell_index(f, u, 0)].stats;
      row.push_back(util::fmt(s.cost_units.mean(), 1) + " / " +
                    util::fmt(s.makespan_seconds.mean(), 0) + "s");
      csv.write_row({std::to_string(factors[f]), tasks,
                     util::fmt(study.clouds[u].charging_unit_seconds, 0),
                     util::fmt(s.cost_units.mean(), 3),
                     util::fmt(s.makespan_seconds.mean(), 1),
                     util::fmt(s.utilization.mean(), 4)});
    }
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.render().c_str());
  return {{std::move(study), std::move(cells)}};
}

// --- Memory ------------------------------------------------------------------

std::vector<Result> memory() {
  using Sizing = sim::MemoryConfig::Sizing;
  const std::vector<double> factors = {0.5, 0.75, 1.0, 1.5, 2.0};
  // Variant 0 is the Sizey-style percentile sizer; the oracle books each
  // task's reference peak times the safety factor, so the noise tail still
  // OOMs it. Tables and the CSV list mean, percentile, oracle.
  const std::pair<const char*, Sizing> sizings[] = {
      {"percentile", Sizing::Percentile}, {"mean", Sizing::Mean},
      {"oracle", Sizing::Oracle}};
  std::printf(
      "Memory provisioning: instance memory x reservation sizing under WIRE "
      "(u = 15 min, peak noise sigma 0.2, 3 repetitions)\n\n");
  util::CsvWriter csv(bench::results_dir() + "/memory.csv");
  csv.write_row({"workflow", "sizing", "provisioning_factor",
                 "instance_mem_mb", "reps", "makespan_mean_s",
                 "makespan_stddev_s", "cost_mean_units", "oom_kills_mean",
                 "reserved_mb_s_mean", "used_mb_s_mean", "wastage_ratio",
                 "quarantined_mean", "incomplete_runs"});
  // One study per profile: the capacity scales with its own peaks.
  std::vector<Result> results;
  for (const workload::WorkflowProfile& profile :
       {workload::epigenomics_profile(workload::Scale::Small),
        workload::tpch6_profile(workload::Scale::Small)}) {
    auto& [study, cells] = results.emplace_back();
    study.workloads = {table1_dag(profile)};
    // Factor f gives each slot f times the largest stage mean peak, so
    // f = 1 fits the average heavy task with no room for the noise tail.
    double need = 0.0;
    for (const workload::StageProfile& stage : profile.stages) {
      need = std::max(need, stage.mean_peak_mem_mb);
    }
    for (double f : factors) {
      sim::CloudConfig cloud = exp::paper_cloud(900.0);
      cloud.memory.instance_mem_mb = f * need * cloud.slots_per_instance;
      cloud.memory.noise_sigma = 0.2;
      study.clouds.push_back(cloud);
    }
    for (const auto& [label, sizing] : sizings) {
      study.variants.push_back(
          {label, [] { return exp::make_policy(exp::PolicyKind::Wire); },
           [sizing = sizing](sim::CloudConfig& cloud, sim::RunOptions&) {
             cloud.memory.sizing = sizing;
           }});
    }
    study.seed_root = 3307;
    cells = study.run();

    util::TextTable table;
    std::vector<std::string> header{"sizing \\ provisioning"};
    for (double f : factors) header.push_back(util::fmt(f, 2) + "x");
    table.set_header(std::move(header));
    for (std::size_t v : {1, 0, 2}) {
      const std::string& sizing = study.variants[v].label;
      std::vector<std::string> row{sizing};
      for (std::size_t f = 0; f < factors.size(); ++f) {
        const exp::StudyCell& cell = cells[study.cell_index(0, f, v)];
        const double ooms = mean_over(cell, oom_kills);
        const double reserved = mean_over(cell, reserved_mb_s);
        const double used = mean_over(cell, used_mb_s);
        const double wastage = used > 0.0 ? reserved / used : 0.0;
        row.push_back(util::fmt(ooms, 0) + " ooms / " +
                      util::fmt(wastage, 2) + "x");
        csv.write_row(
            {profile.name, sizing, util::fmt(factors[f], 2),
             util::fmt(study.clouds[f].memory.instance_mem_mb, 1),
             std::to_string(study.repetitions),
             util::fmt(cell.stats.makespan_seconds.mean(), 1),
             util::fmt(cell.stats.makespan_seconds.stddev(), 1),
             util::fmt(cell.stats.cost_units.mean(), 3),
             util::fmt(ooms, 2), util::fmt(reserved, 1), util::fmt(used, 1),
             util::fmt(wastage, 4),
             util::fmt(mean_over(cell, quarantined), 2),
             std::to_string(incomplete_runs(cell))});
        const std::string where = profile.name + " " + sizing + " at " +
                                  util::fmt(factors[f], 2) + "x";
        for (const sim::RunResult& run : cell.runs) {
          check(run.mem_reserved_mb_seconds >= run.mem_used_mb_seconds &&
                    run.mem_used_mb_seconds > 0.0,
                where + ": reserved < used MB·s, or none used");
        }
        check(factors[f] < 2.0 || incomplete_runs(cell) == 0,
              where + ": ample memory stranded a task");
        check(factors[f] >= 1.0 || ooms > 0.0, where + ": no OOM kill");
      }
      table.add_row(std::move(row));
    }
    std::printf("%s — OOM kills / reserved:used MB·s vs provisioning\n%s\n",
                profile.name.c_str(), table.render().c_str());
  }
  return results;
}

// --- Checkpointing -----------------------------------------------------------

/// A 256 MB image over a 256 MB/s channel: a 1 s write cost, so the
/// Young/Daly interval at crash rate λ per hour is sqrt(2 · 3600 / λ) s.
constexpr double kChannelMbPerS = 256.0;
const std::vector<double> kStaticIntervals = {60.0,  120.0,  300.0,
                                              600.0, 1200.0, 2400.0};
// Variant indices of checkpoint_study(): the static intervals run from
// kFirstStatic to kYoungDaly - 1.
constexpr std::size_t kNone = 0, kLegacy = 1, kFirstStatic = 2, kStatic600 = 5,
                      kYoungDaly = 8;

/// WIRE on `wf` at u = 1 min, one cloud per crash rate. Variants: no
/// checkpointing (0), the legacy 0.5 salvage fraction (1), each static
/// interval (2 .. 7) and Young/Daly (8).
exp::Study checkpoint_study(dag::Workflow wf, const std::vector<double>& rates,
                            std::uint32_t repetitions) {
  using IntervalPolicy = sim::CheckpointConfig::IntervalPolicy;
  exp::Study study;
  study.workloads = {std::move(wf)};
  for (double rate : rates) {
    sim::CloudConfig cloud = exp::paper_cloud(60.0);
    cloud.faults.crash_rate_per_hour = rate;
    study.clouds.push_back(cloud);
  }
  const auto wire = [] { return exp::make_policy(exp::PolicyKind::Wire); };
  study.variants = {{"none", wire, nullptr},
                    {"legacy-0.5", wire,
                     [](sim::CloudConfig& cloud, sim::RunOptions&) {
                       cloud.checkpoint_fraction = 0.5;
                     }}};
  for (double interval : kStaticIntervals) {
    study.variants.push_back(
        {"static-" + util::fmt(interval, 0), wire,
         [interval](sim::CloudConfig& cloud, sim::RunOptions&) {
           cloud.checkpoint.channel_bandwidth_mb_per_s = kChannelMbPerS;
           cloud.checkpoint.interval_policy = IntervalPolicy::Static;
           cloud.checkpoint.static_interval_seconds = interval;
         }});
  }
  // The hazard prior starts at the cell's true crash rate with a heavy
  // weight: the study measures the interval policy, not estimator burn-in
  // (the convergence tests cover that).
  study.variants.push_back(
      {"young-daly", wire, [](sim::CloudConfig& cloud, sim::RunOptions&) {
         cloud.checkpoint.channel_bandwidth_mb_per_s = kChannelMbPerS;
         cloud.checkpoint.interval_policy = IntervalPolicy::YoungDaly;
         cloud.checkpoint.hazard_prior_per_hour =
             cloud.faults.crash_rate_per_hour;
         cloud.checkpoint.hazard_prior_weight_hours = 10.0;
       }});
  study.repetitions = repetitions;
  study.seed_root = 717;
  return study;
}

double checkpoints_completed(const sim::RunResult& r) {
  return r.checkpoints_completed;
}

/// checkpoint.csv's per-run columns, each a mean over the cell's runs.
const std::pair<Metric, int> kCheckpointColumns[] = {
    {[](const sim::RunResult& r) { return r.makespan; }, 1},
    {[](const sim::RunResult& r) { return r.cost_units; }, 3},
    {[](const sim::RunResult& r) -> double { return r.task_restarts; }, 2},
    {crashes, 2},
    {[](const sim::RunResult& r) { return r.lost_work_seconds; }, 1},
    {[](const sim::RunResult& r) { return r.checkpoint_io_slot_seconds; }, 1},
    {waste_s, 1},
    {checkpoints_completed, 2},
    {[](const sim::RunResult& r) -> double { return r.checkpoints_lost; }, 2}};

std::vector<Result> checkpoint() {
  const std::vector<double> rates = {0.1, 0.5, 2.0};
  exp::Study study = checkpoint_study(
      table1_dag(workload::pagerank_profile(workload::Scale::Large)), rates,
      5);
  auto cells = study.run();
  std::printf(
      "Checkpoint intervals: PageRank L under WIRE, u = 1 min, 1 s write "
      "cost, 5 repetitions; waste = lost work + checkpoint I/O\n\n");

  util::CsvWriter csv(bench::results_dir() + "/checkpoint.csv");
  csv.write_row({"study", "policy", "crash_rate_per_hour",
                 "static_interval_s", "reps", "makespan_mean_s",
                 "cost_mean_units", "restarts_mean", "crashes_mean",
                 "lost_work_s_mean", "ckpt_io_s_mean", "waste_s_mean",
                 "ckpts_completed_mean", "ckpts_lost_mean"});
  const auto write = [&](const char* series, std::size_t r, std::size_t v) {
    const bool fixed = v >= kFirstStatic && v < kYoungDaly;
    std::vector<std::string> row{
        series, fixed ? "static" : study.variants[v].label,
        util::fmt(rates[r], 2),
        util::fmt(fixed ? kStaticIntervals[v - kFirstStatic] : 0.0, 1),
        std::to_string(study.repetitions)};
    for (const auto& [metric, digits] : kCheckpointColumns) {
      row.push_back(util::fmt(
          mean_over(cells[study.cell_index(0, r, v)], metric), digits));
    }
    csv.write_row(row);
  };
  // The rate table's interval policies, then the static-interval sweep
  // through the Young/Daly point at every rate (the waste-vs-interval
  // U-curve: too short burns I/O, too long forfeits work).
  for (std::size_t r = 0; r < rates.size(); ++r) {
    for (std::size_t v : {kNone, kLegacy, kStatic600, kYoungDaly}) {
      write("policy_x_rate", r, v);
    }
  }
  for (std::size_t r = 0; r < rates.size(); ++r) {
    for (std::size_t v = kFirstStatic; v <= kYoungDaly; ++v) {
      write("interval_sweep", r, v);
    }
  }

  util::TextTable table;
  std::vector<std::string> header{"policy \\ crash rate"};
  for (double rate : rates) header.push_back(util::fmt(rate, 1) + "/h");
  table.set_header(std::move(header));
  for (std::size_t v = 0; v < study.variants.size(); ++v) {
    std::vector<std::string> row{study.variants[v].label};
    for (std::size_t r = 0; r < rates.size(); ++r) {
      const exp::StudyCell& cell = cells[study.cell_index(0, r, v)];
      row.push_back(
          util::fmt(mean_over(cell, waste_s), 0) + "s / " +
          util::fmt(mean_over(cell, checkpoints_completed), 1) + " / " +
          util::fmt(cell.stats.makespan_seconds.mean(), 0) + "s");
    }
    table.add_row(std::move(row));
  }
  std::printf("%s(cells: waste / checkpoints / makespan)\n\n",
              table.render().c_str());

  // The tripwire: 32 x 600 s tasks at 2 crashes/h. Young/Daly checkpoints
  // about every 60 s; static-600 barely checkpoints inside a task, so nearly
  // every crash forfeits a task's whole progress.
  exp::Study linear =
      checkpoint_study(workload::linear_workflow(8, 4, 600.0), {2.0}, 3);
  auto linear_cells = linear.run();
  const exp::StudyCell& yd = linear_cells[kYoungDaly];
  check(mean_over(yd, checkpoints_completed) > 0.0,
        "linear tripwire: young-daly committed no checkpoint");
  check(mean_over(yd, waste_s) < mean_over(linear_cells[kStatic600], waste_s),
        "linear tripwire: young-daly wasted no less than static-600");
  return {{std::move(study), std::move(cells)},
          {std::move(linear), std::move(linear_cells)}};
}

// --- Budget ------------------------------------------------------------------

std::vector<Result> budget() {
  const std::vector<double> scales = {0.7, 1.0, 1.4},
                            slacks = {1.25, 1.75, 2.5, 3.5};
  // A column at an ample budget, checked for a monotone frontier.
  constexpr double kAmple = 1.2;
  const std::vector<double> ample_slacks = {1.5, 2.5, 4.0};
  std::printf(
      "Budget sweep: cost-vs-deadline Pareto frontier under a spend ceiling "
      "(u = 1 min, deadline-aware pacing, 3 repetitions)\n\n");
  const std::vector<std::string> csv_header{
      "workload",        "budget_units", "deadline_s",       "cost_mean",
      "makespan_mean_s", "slo_met",      "over_budget_mean", "peak_mean"};
  util::CsvWriter csv(bench::results_dir() + "/budget.csv");
  csv.write_row(csv_header);
  // One study per workload: budgets and deadlines scale with its probe.
  std::vector<Result> results;
  for (const workload::WorkflowProfile& profile :
       {workload::epigenomics_profile(workload::Scale::Small),
        workload::pagerank_profile(workload::Scale::Large)}) {
    auto& [study, cells] = results.emplace_back();
    study.workloads = {table1_dag(profile)};
    study.clouds = {exp::paper_cloud(60.0)};
    study.seed_root = 911;
    // An unconstrained WIRE probe run sets the budget and deadline scales.
    const auto wire = exp::make_policy(exp::PolicyKind::Wire);
    const sim::RunResult probe =
        sim::simulate(study.workloads[0], *wire, study.clouds[0],
                      {util::derive_seed(911, 0)});
    // Variant 0 is plain WIRE, then the scale x slack grid, the ample
    // column and a zero budget; budgets[v] is variant v's.
    std::vector<policies::BudgetOptions> budgets(1);
    study.variants = {exp::policy_variant(exp::PolicyKind::Wire)};
    const auto add = [&](const std::string& label,
                         const policies::BudgetOptions& options) {
      budgets.push_back(options);
      study.variants.push_back(
          {label,
           [options] {
             return std::make_unique<policies::BudgetPolicy>(
                 exp::make_policy(exp::PolicyKind::Wire), options);
           },
           nullptr});
    };
    const auto add_paced = [&](double scale, double slack) {
      add(util::fmt(scale, 1) + "x/" + util::fmt(slack, 2) + "x",
          {std::ceil(scale * probe.cost_units),
           policies::BudgetMode::kDeadlineAware, slack * probe.makespan});
    };
    for (double scale : scales) {
      for (double slack : slacks) add_paced(scale, slack);
    }
    const std::size_t ample = study.variants.size();
    for (double slack : ample_slacks) add_paced(kAmple, slack);
    add("budget-off", {});
    cells = study.run();

    // The grid and plain WIRE, one row each on screen and in the CSV.
    util::TextTable table;
    table.set_header(csv_header);
    for (std::size_t v = 0; v < ample; ++v) {
      const policies::BudgetOptions& b = budgets[v];
      std::uint32_t met = 0;
      double over = 0.0;
      for (const sim::RunResult& run : cells[v].runs) {
        met += b.deadline_seconds <= 0.0 || run.makespan <= b.deadline_seconds;
        if (b.budget_units > 0.0) {
          over += std::max(0.0, run.cost_units - b.budget_units) /
                  study.repetitions;
        }
      }
      const metrics::CellStats& stats = cells[v].stats;
      const std::vector<std::string> row{
          profile.name, util::fmt(b.budget_units, 2),
          util::fmt(b.deadline_seconds, 1),
          util::fmt(stats.cost_units.mean(), 3),
          util::fmt(stats.makespan_seconds.mean(), 1),
          util::fmt(static_cast<double>(met) / study.repetitions, 2),
          util::fmt(over, 3), util::fmt(stats.peak_instances.mean(), 2)};
      table.add_row(row);
      csv.write_row(row);
    }
    std::printf("%s (probe: cost %.1f units, makespan %.0f s)\n%s\n",
                profile.name.c_str(), probe.cost_units, probe.makespan,
                table.render().c_str());

    for (std::size_t r = 0; r < study.repetitions; ++r) {
      check(bench::same_run(cells[0].runs[r], cells.back().runs[r]),
            "a zero-budget run diverged from plain WIRE on " + profile.name);
    }
    for (std::size_t v = ample + 1; v < ample + ample_slacks.size(); ++v) {
      check(cells[v].stats.cost_units.mean() <=
                cells[v - 1].stats.cost_units.mean() * 1.05,
            "the 1.2x budget frontier is not monotone on " + profile.name +
                " at " + study.variants[v].label);
    }
  }
  return results;
}

}  // namespace

int main() {
  report("ablation", ablation());
  report("generalize", generalize());
  report("faults", faults());
  report("deadline", deadline());
  report("clustering", clustering());
  report("memory", memory(),
         {{"OOM kills", "oom_kills", oom_kills, 1},
          {"reserved MB·s", "reserved_mb_s", reserved_mb_s, 0}});
  report("checkpoint", checkpoint(), {{"waste (s)", "waste_s", waste_s, 0}});
  report("budget", budget());
  if (failures > 0) {
    std::printf("FAILED: %u checks\n", failures);
    return 1;
  }
  return 0;
}
