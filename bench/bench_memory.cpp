// Memory-provisioning sweep: instance memory capacity x reservation-sizing
// policy on Table-I workflows with their stage memory footprints.
//
// The sweep walks provisioning factors from heavy under-provisioning (the
// per-slot fair share is half the largest stage's mean peak — most first
// attempts OOM and retry upsized) to comfortable over-provisioning, under
// the three sizing policies of sim::MemoryConfig (Mean, Sizey-style
// Percentile, and the clairvoyant Oracle wastage floor). Each cell reports
// the two costs the sizing literature trades off: wastage (reserved vs
// clairvoyant MB-seconds) and OOM-retry churn (kills, quarantined tasks),
// alongside the makespan/cost impact of memory-aware admission.
//
// `--smoke` runs a fast tripwire subset (one workflow, Percentile + Oracle,
// one tight and one ample factor) asserting the invariants CI relies on:
// reserved MB-seconds dominate the clairvoyant integral, ample capacity
// completes every task with nothing quarantined, and the tight cells
// actually exercise the OOM-retry machinery. Exits nonzero on violation.
//
// Both modes emit machine-readable BENCH_memory.json (the repo's first
// perf-trajectory series) next to the CSV in bench_results/.
//
// All seeds are printed (DESIGN.md: randomized harnesses announce their
// seeds) so any cell reproduces standalone.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "exp/settings.h"
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

constexpr std::uint64_t kSeedRoot = 3307;

struct Cell {
  util::RunningStats makespan;
  util::RunningStats cost;
  util::RunningStats oom_kills;
  util::RunningStats reserved_mb_s;
  util::RunningStats used_mb_s;
  util::RunningStats quarantined;
  std::uint32_t incomplete_runs = 0;
};

const char* sizing_label(sim::MemoryConfig::Sizing sizing) {
  switch (sizing) {
    case sim::MemoryConfig::Sizing::Mean:
      return "mean";
    case sim::MemoryConfig::Sizing::Percentile:
      return "percentile";
    case sim::MemoryConfig::Sizing::Oracle:
      return "oracle";
  }
  return "unknown";
}

/// The provisioning yardstick: the largest stage mean peak of the profile.
/// A factor-f cell gives each instance f * slots * need MB, so the cold-start
/// fair share is f * need per slot — f = 1 sizes the average heavy task
/// exactly (no headroom for the lognormal tail), f < 1 under-provisions.
double per_slot_need_mb(const workload::WorkflowProfile& profile) {
  double need = 0.0;
  for (const workload::StageProfile& sp : profile.stages) {
    need = std::max(need, sp.mean_peak_mem_mb);
  }
  return need;
}

sim::CloudConfig memory_cloud(double factor, double need_mb,
                              sim::MemoryConfig::Sizing sizing) {
  sim::CloudConfig config = exp::paper_cloud(900.0);
  config.memory.instance_mem_mb =
      factor * need_mb * static_cast<double>(config.slots_per_instance);
  config.memory.noise_sigma = 0.2;
  config.memory.sizing = sizing;
  return config;
}

/// One run of a cell; returns false if any task failed to complete.
bool run_cell(const dag::Workflow& wf, double factor, double need_mb,
              sim::MemoryConfig::Sizing sizing, std::uint64_t seed,
              Cell* cell) {
  const sim::CloudConfig config = memory_cloud(factor, need_mb, sizing);
  auto policy = exp::make_policy(exp::PolicyKind::Wire);
  sim::RunOptions options;
  options.seed = seed;
  options.initial_instances = exp::initial_instances(exp::PolicyKind::Wire,
                                                     config);
  options.max_sim_seconds = 10.0 * 24.0 * 3600.0;
  const sim::RunResult r = sim::simulate(wf, *policy, config, options);
  bool complete = r.quarantined_tasks.empty();
  for (const sim::TaskRuntime& rec : r.task_records) {
    if (rec.phase != sim::TaskPhase::Completed) complete = false;
  }
  if (cell != nullptr) {
    cell->makespan.add(r.makespan);
    cell->cost.add(r.cost_units);
    cell->oom_kills.add(static_cast<double>(r.oom_kills));
    cell->reserved_mb_s.add(r.mem_reserved_mb_seconds);
    cell->used_mb_s.add(r.mem_used_mb_seconds);
    cell->quarantined.add(static_cast<double>(r.quarantined_tasks.size()));
    if (!complete) ++cell->incomplete_runs;
  }
  return complete;
}

double wastage_ratio(const Cell& cell) {
  return cell.used_mb_s.mean() > 0.0
             ? cell.reserved_mb_s.mean() / cell.used_mb_s.mean()
             : 0.0;
}

/// One cell of the perf-trajectory series BENCH_memory.json (written next
/// to the CSV so CI can archive and diff it across commits): full-precision
/// means of one sweep cell.
bench::JsonFields json_cell(const std::string& workflow, const char* sizing,
                            double factor, double instance_mem_mb,
                            std::uint32_t reps, const Cell& c) {
  return {{"workflow", workflow},
          {"sizing", sizing},
          {"provisioning_factor", factor},
          {"instance_mem_mb", instance_mem_mb},
          {"reps", reps},
          {"makespan_mean_s", c.makespan.mean()},
          {"cost_mean_units", c.cost.mean()},
          {"oom_kills_mean", c.oom_kills.mean()},
          {"reserved_mb_s_mean", c.reserved_mb_s.mean()},
          {"used_mb_s_mean", c.used_mb_s.mean()},
          {"wastage_ratio", wastage_ratio(c)},
          {"quarantined_mean", c.quarantined.mean()},
          {"incomplete_runs", c.incomplete_runs}};
}

int run_smoke() {
  std::printf(
      "bench_memory --smoke: provisioning tripwire (seed root %llu)\n",
      static_cast<unsigned long long>(kSeedRoot));
  const workload::WorkflowProfile profile =
      workload::epigenomics_profile(workload::Scale::Small);
  const dag::Workflow wf = workload::make_workflow(profile, 7);
  const double need = per_slot_need_mb(profile);
  int rc = 0;
  std::vector<bench::JsonFields> json;
  double tight_ooms = 0.0;
  std::size_t idx = 0;
  for (sim::MemoryConfig::Sizing sizing :
       {sim::MemoryConfig::Sizing::Percentile,
        sim::MemoryConfig::Sizing::Oracle}) {
    // Ample capacity (2x the heaviest stage mean per slot) must complete
    // every task with nothing quarantined; the tight factor must actually
    // stress the sizing (OOM-retry churn is asserted across the subset
    // below, completion is not — quarantine past the OOM cap is the
    // designed outcome of genuine under-provisioning).
    for (double factor : {2.0, 0.75}) {
      const std::uint64_t seed = util::derive_seed(
          kSeedRoot, 9000 + idx);
      Cell cell;
      const bool complete = run_cell(wf, factor, need, sizing, seed, &cell);
      const bool wastage_ok =
          cell.reserved_mb_s.mean() >= cell.used_mb_s.mean() &&
          cell.reserved_mb_s.mean() > 0.0;
      std::printf(
          "  sizing=%-10s factor=%.2f seed=%llu ooms=%.0f wastage=%.2fx "
          "quarantined=%.0f %s%s\n",
          sizing_label(sizing), factor,
          static_cast<unsigned long long>(seed), cell.oom_kills.mean(),
          wastage_ratio(cell), cell.quarantined.mean(),
          complete ? "complete" : "INCOMPLETE",
          wastage_ok ? "" : " WASTAGE-VIOLATION");
      if (!wastage_ok) rc = 1;
      if (factor == 2.0 && !complete) {
        std::printf("    FAIL: ample capacity stranded work\n");
        rc = 1;
      }
      json.push_back(json_cell(
          profile.name, sizing_label(sizing), factor,
          memory_cloud(factor, need, sizing).memory.instance_mem_mb, 1u,
          cell));
      if (factor < 1.0) tight_ooms += cell.oom_kills.mean();
      ++idx;
    }
  }
  if (tight_ooms == 0.0) {
    std::printf(
        "  FAIL: under-provisioned cells never exercised the OOM-retry "
        "path\n");
    rc = 1;
  }
  bench::write_study_json("memory", /*smoke=*/true,
                          {{"seed_root", kSeedRoot}}, json,
                          "perf-trajectory series");
  if (rc != 0) std::printf("bench_memory --smoke FAILED\n");
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return run_smoke();
  }

  const std::vector<workload::WorkflowProfile> profiles = {
      workload::epigenomics_profile(workload::Scale::Small),
      workload::tpch6_profile(workload::Scale::Small),
  };
  const std::vector<double> factors = {0.5, 0.75, 1.0, 1.5, 2.0};
  const std::vector<sim::MemoryConfig::Sizing> sizings = {
      sim::MemoryConfig::Sizing::Mean, sim::MemoryConfig::Sizing::Percentile,
      sim::MemoryConfig::Sizing::Oracle};
  constexpr std::uint32_t kReps = 3;

  struct Job {
    std::size_t profile;
    std::size_t sizing;
    std::size_t factor;
  };
  std::vector<Job> jobs;
  for (std::size_t w = 0; w < profiles.size(); ++w) {
    for (std::size_t s = 0; s < sizings.size(); ++s) {
      for (std::size_t f = 0; f < factors.size(); ++f) {
        jobs.push_back(Job{w, s, f});
      }
    }
  }
  std::vector<Cell> cells(jobs.size());

  std::printf(
      "Memory-provisioning sweep: %zu workflows x %zu sizings x %zu "
      "factors, %u repetitions (seed root %llu)\n\n",
      profiles.size(), sizings.size(), factors.size(), kReps,
      static_cast<unsigned long long>(kSeedRoot));

  util::parallel_for(jobs.size(), [&](std::size_t j) {
    const Job& job = jobs[j];
    const dag::Workflow wf = workload::make_workflow(profiles[job.profile], 7);
    const double need = per_slot_need_mb(profiles[job.profile]);
    for (std::uint32_t rep = 0; rep < kReps; ++rep) {
      const std::uint64_t seed = util::derive_seed(kSeedRoot, j * 16 + rep);
      run_cell(wf, factors[job.factor], need, sizings[job.sizing], seed,
               &cells[j]);
    }
  });

  util::CsvWriter csv(bench::results_dir() + "/memory.csv");
  csv.write_row({"workflow", "sizing", "provisioning_factor",
                 "instance_mem_mb", "reps", "makespan_mean_s",
                 "makespan_stddev_s", "cost_mean_units", "oom_kills_mean",
                 "reserved_mb_s_mean", "used_mb_s_mean", "wastage_ratio",
                 "quarantined_mean", "incomplete_runs"});
  std::vector<bench::JsonFields> json;
  json.reserve(jobs.size());
  for (std::size_t w = 0; w < profiles.size(); ++w) {
    const double need = per_slot_need_mb(profiles[w]);
    util::TextTable table;
    std::vector<std::string> header{"sizing \\ provisioning"};
    for (double f : factors) header.push_back(util::fmt(f, 2) + "x");
    table.set_header(std::move(header));
    for (std::size_t s = 0; s < sizings.size(); ++s) {
      std::vector<std::string> row{sizing_label(sizings[s])};
      for (std::size_t f = 0; f < factors.size(); ++f) {
        std::size_t j = 0;
        for (; j < jobs.size(); ++j) {
          if (jobs[j].profile == w && jobs[j].sizing == s &&
              jobs[j].factor == f) {
            break;
          }
        }
        const Cell& cell = cells[j];
        row.push_back(util::fmt(cell.oom_kills.mean(), 0) + " ooms / " +
                      util::fmt(wastage_ratio(cell), 2) + "x");
        const double mem_mb =
            memory_cloud(factors[f], need, sizings[s]).memory.instance_mem_mb;
        csv.write_row({profiles[w].name, sizing_label(sizings[s]),
                       util::fmt(factors[f], 2), util::fmt(mem_mb, 1),
                       std::to_string(kReps),
                       util::fmt(cell.makespan.mean(), 1),
                       util::fmt(cell.makespan.stddev(), 1),
                       util::fmt(cell.cost.mean(), 3),
                       util::fmt(cell.oom_kills.mean(), 2),
                       util::fmt(cell.reserved_mb_s.mean(), 1),
                       util::fmt(cell.used_mb_s.mean(), 1),
                       util::fmt(wastage_ratio(cell), 4),
                       util::fmt(cell.quarantined.mean(), 2),
                       std::to_string(cell.incomplete_runs)});
        json.push_back(json_cell(profiles[w].name, sizing_label(sizings[s]),
                                 factors[f], mem_mb, kReps, cell));
      }
      table.add_row(std::move(row));
    }
    std::printf("%s — OOM churn / wastage vs provisioning\n%s\n",
                profiles[w].name.c_str(), table.render().c_str());
  }
  std::printf("(cells: OOM kills / reserved:used wastage; series written to "
              "%s/memory.csv)\n",
              bench::results_dir().c_str());
  bench::write_study_json("memory", /*smoke=*/false,
                          {{"seed_root", kSeedRoot}}, json,
                          "perf-trajectory series");
  return 0;
}
