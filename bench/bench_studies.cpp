// Study bench: the five comparisons beyond Figs. 5/6, each one exp::Study
// run through the paired-seed runner, so every variant of a cell runs on the
// seeds of the study's variant 0 and its paired Δ isolates the variant:
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
//               notice); exits 1 if any run leaves a task incomplete or
//               quarantined. Only crashes are injected, and a crash-killed
//               attempt retries through the restart path, so none may.
//   deadline    the cost of a latency SLO (a Jockey reconstruction): a
//               deadline sweep with online and history estimates against
//               plain WIRE (variant 0) at u = 1 min
//   clustering  horizontal clustering factor x charging unit on Genome S
//               under WIRE (Fig. 3's lever: clustering lengthens tasks)
//
// Each study writes its CSV series and BENCH_<study>.json (per-cell means
// and the paired Δ against variant 0: mean, stddev, 95% t-interval) to
// bench_results/.
#include <algorithm>
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
/// seed root) and writes them to BENCH_<name>.json; the study's own series
/// is <name>.csv.
void report(const std::string& name, const std::vector<Result>& results) {
  util::TextTable table;
  table.set_header({"workload", "u (min)", "crashes/h", "variant",
                    "Δ makespan (s)", "Δ cost (units)"});
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
           {"variant", variant},
           {"runs", static_cast<std::uint64_t>(cell.stats.runs())},
           {"makespan_mean_s", cell.stats.makespan_seconds.mean()},
           {"cost_mean_units", cell.stats.cost_units.mean()}});
      if (cell.variant == 0) continue;
      json.back().emplace_back("makespan_delta_s",
                               delta_json(cell.makespan_delta));
      json.back().emplace_back("cost_delta_units", delta_json(cell.cost_delta));
      const exp::PairedDelta& dm = cell.makespan_delta;
      const exp::PairedDelta& dc = cell.cost_delta;
      table.add_row({wf.name(), util::fmt(cloud.charging_unit_seconds / 60, 0),
                     util::fmt(cloud.faults.crash_rate_per_hour, 1), variant,
                     util::fmt_mean_std(dm.mean, dm.half_width, 0),
                     util::fmt_mean_std(dc.mean, dc.half_width, 1)});
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
        util::RunningStats crashes, wasted;
        for (const sim::RunResult& run : cell.runs) {
          crashes.add(static_cast<double>(run.instance_crashes));
          wasted.add(run.wasted_slot_seconds);
        }
        row.push_back(util::fmt(cell.stats.cost_units.mean(), 0) + "u / " +
                      util::fmt(cell.stats.makespan_seconds.mean(), 0) + "s");
        csv.write_row(
            {study.workloads[w].name(), study.variants[p].label,
             util::fmt(study.clouds[r].faults.crash_rate_per_hour, 2),
             std::to_string(study.repetitions),
             util::fmt(cell.stats.makespan_seconds.mean(), 1),
             util::fmt(cell.stats.makespan_seconds.stddev(), 1),
             util::fmt(cell.stats.cost_units.mean(), 3),
             util::fmt(crashes.mean(), 2),
             util::fmt(cell.stats.restarts.mean(), 2),
             util::fmt(wasted.mean(), 1),
             std::to_string(incomplete_runs(cell))});
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

}  // namespace

int main() {
  report("ablation", ablation());
  report("generalize", generalize());
  const std::vector<Result> fault_study = faults();
  report("faults", fault_study);
  report("deadline", deadline());
  report("clustering", clustering());
  std::uint32_t stranded = 0;
  for (const exp::StudyCell& cell : fault_study[0].cells) {
    stranded += incomplete_runs(cell);
  }
  if (stranded > 0) {
    std::printf("FAILED: %u fault-study runs left a task incomplete or "
                "quarantined\n",
                stranded);
    return 1;
  }
  return 0;
}
