// Multi-tenant ensemble study: a Poisson stream of workflow jobs sharing one
// §IV-B site, swept over arrival rate × arbiter strategy × tenant policy
// ({wire, reactive-conserving}). For each cell: mean/max per-job slowdown vs
// the dedicated-site counterfactual, mean queue wait, total cost, and site
// utilization. The interesting comparison is how much of the batch-queue
// (fifo-exclusive) slowdown the sharing arbiters recover, and whether WIRE's
// demand signal buys anything over reactive demand under the demand-weighted
// strategy.
//
// A second study reruns the demand-weighted cell on a memory-constrained
// site at two provisioning factors (tight and ample per-slot capacity) with
// the memory-aware demand signal off vs on: tenants whose projected
// footprint cannot fit their instance-count bid lift it. The controller bids
// the footprint of the wave that can actually run concurrently at its
// planned pool size (not the whole upcoming queue — that over-claim starved
// tight sites to a 3.9x mean slowdown), so the study measures what the lift
// costs in queueing at each provisioning level, not just what it buys.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "ensemble/arbiter.h"
#include "ensemble/arrival.h"
#include "ensemble/driver.h"
#include "ensemble/report.h"
#include "exp/settings.h"
#include "metrics/report.h"
#include "util/csv.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "workload/profiles.h"

namespace {

using namespace wire;

struct Cell {
  double mean_interarrival = 0.0;
  ensemble::ArbiterStrategy strategy = ensemble::ArbiterStrategy::FifoExclusive;
  exp::PolicyKind policy = exp::PolicyKind::Wire;
  /// Memory-bid study knobs: 0 = memory-off site (the main sweep).
  double mem_factor = 0.0;
  bool memory_bid = false;
  ensemble::EnsembleReport report;
};

std::vector<workload::WorkflowProfile> catalogue() {
  return {workload::tpch1_profile(workload::Scale::Small),
          workload::tpch6_profile(workload::Scale::Small),
          workload::pagerank_profile(workload::Scale::Small),
          workload::epigenomics_profile(workload::Scale::Small)};
}

/// The provisioning yardstick for the memory-bid study: the largest stage
/// mean peak across the whole catalogue (same convention as the per-profile
/// need of bench_studies' memory study).
double catalogue_need_mb() {
  double need = 0.0;
  for (const workload::WorkflowProfile& profile : catalogue()) {
    for (const workload::StageProfile& sp : profile.stages) {
      need = std::max(need, sp.mean_peak_mem_mb);
    }
  }
  return need;
}

void run_cell(Cell& cell) {
  ensemble::PoissonArrivalConfig stream;
  stream.mean_interarrival_seconds = cell.mean_interarrival;
  stream.job_count = 50;
  stream.seed = 1905;  // one stream per rate, shared across strategies
  const ensemble::ArrivalProcess arrivals =
      ensemble::ArrivalProcess::poisson(stream, catalogue().size());

  sim::CloudConfig site = exp::paper_cloud(900.0);
  ensemble::EnsembleOptions options;
  options.strategy = cell.strategy;
  options.site_cap = site.max_instances;

  core::WireOptions wire_options;
  if (cell.mem_factor > 0.0) {
    site.memory.instance_mem_mb =
        cell.mem_factor * catalogue_need_mb() *
        static_cast<double>(site.slots_per_instance);
    site.memory.noise_sigma = 0.2;
    // The signal is produced in both arms (controllers report projected
    // footprints); only the arbitration consumes or ignores it, so the
    // off-arm isolates the memory-aware demand lift itself.
    wire_options.report_memory_demand = true;
    options.memory_aware_demand = cell.memory_bid;
  }

  ensemble::EnsembleDriver driver(
      catalogue(), arrivals, exp::sharded_policy_factory(cell.policy, wire_options),
      site, options);
  cell.report = driver.run();
}

}  // namespace

int main() {
  const std::vector<double> rates = {900.0, 300.0, 100.0};  // mean interarrival
  const std::vector<exp::PolicyKind> policies = {
      exp::PolicyKind::Wire, exp::PolicyKind::ReactiveConserving};

  std::vector<Cell> cells;
  for (double rate : rates) {
    for (ensemble::ArbiterStrategy strategy : ensemble::all_strategies()) {
      for (exp::PolicyKind policy : policies) {
        Cell cell;
        cell.mean_interarrival = rate;
        cell.strategy = strategy;
        cell.policy = policy;
        cells.push_back(cell);
      }
    }
  }
  const std::size_t main_cells = cells.size();
  // Memory-bid study: demand-weighted WIRE tenants on a memory-constrained
  // site, tight (0.75x) and ample (1.5x) per-slot provisioning, demand
  // signal ignored vs consumed.
  const std::vector<double> mem_factors = {0.75, 1.5};
  for (double factor : mem_factors) {
    for (bool bid : {false, true}) {
      Cell cell;
      cell.mean_interarrival = 300.0;
      cell.strategy = ensemble::ArbiterStrategy::DemandWeighted;
      cell.policy = exp::PolicyKind::Wire;
      cell.mem_factor = factor;
      cell.memory_bid = bid;
      cells.push_back(cell);
    }
  }
  util::parallel_for(cells.size(), [&](std::size_t i) { run_cell(cells[i]); });

  std::printf(
      "Ensemble study: 50-job Poisson streams, 4 workflow profiles, one "
      "shared 12-instance site (u = 15 min)\nslowdown = (queue wait + "
      "makespan) / dedicated-site makespan of the identical job\n\n");

  util::CsvWriter csv(bench::results_dir() + "/ensemble.csv");
  csv.write_row({"mean_interarrival_s", "arbiter", "policy", "mem_factor",
                 "memory_aware_demand", "mean_slowdown", "max_slowdown",
                 "mean_wait_s", "total_cost_units", "site_utilization",
                 "throughput_jobs_per_h"});

  const auto csv_row = [&](const Cell& cell) {
    const ensemble::EnsembleReport& r = cell.report;
    metrics::EnsembleCellStats stats;
    for (const ensemble::JobOutcome& j : r.jobs) {
      stats.add(j.slowdown, j.queue_wait_seconds, j.cost_units);
    }
    csv.write_row({util::fmt(cell.mean_interarrival, 0), r.arbiter_strategy,
                   r.tenant_policy, util::fmt(cell.mem_factor, 2),
                   cell.mem_factor > 0.0 ? (cell.memory_bid ? "on" : "off")
                                         : "-",
                   util::fmt(r.mean_slowdown, 4), util::fmt(r.max_slowdown, 4),
                   util::fmt(stats.queue_wait_seconds.mean(), 2),
                   util::fmt(r.total_cost_units, 2),
                   util::fmt(r.site_utilization, 4),
                   util::fmt(r.throughput_jobs_per_hour, 3)});
    return stats;
  };

  std::size_t idx = 0;
  for (double rate : rates) {
    util::TextTable table;
    table.set_header({"arbiter", "policy", "slowdown mean", "slowdown max",
                      "wait mean [s]", "cost [units]", "site util",
                      "jobs/h"});
    for (std::size_t k = 0;
         k < ensemble::all_strategies().size() * policies.size();
         ++k, ++idx) {
      const Cell& cell = cells[idx];
      const ensemble::EnsembleReport& r = cell.report;
      const metrics::EnsembleCellStats stats = csv_row(cell);
      table.add_row({r.arbiter_strategy, r.tenant_policy,
                     util::fmt(r.mean_slowdown, 3),
                     util::fmt(r.max_slowdown, 3),
                     util::fmt(stats.queue_wait_seconds.mean(), 1),
                     util::fmt(r.total_cost_units, 1),
                     util::fmt(r.site_utilization, 3),
                     util::fmt(r.throughput_jobs_per_hour, 2)});
    }
    std::printf("mean interarrival %.0f s (offered load %.1f jobs/h)\n%s\n",
                rate, 3600.0 / rate, table.render().c_str());
  }

  util::TextTable mem_table;
  mem_table.set_header({"provisioning", "memory bid", "slowdown mean",
                        "slowdown max", "wait mean [s]", "cost [units]",
                        "site util", "restarts"});
  for (std::size_t i = main_cells; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    const ensemble::EnsembleReport& r = cell.report;
    const metrics::EnsembleCellStats stats = csv_row(cell);
    std::uint32_t restarts = 0;
    for (const ensemble::JobOutcome& j : r.jobs) restarts += j.task_restarts;
    mem_table.add_row({util::fmt(cell.mem_factor, 2) + "x",
                       cell.memory_bid ? "on" : "off",
                       util::fmt(r.mean_slowdown, 3),
                       util::fmt(r.max_slowdown, 3),
                       util::fmt(stats.queue_wait_seconds.mean(), 1),
                       util::fmt(r.total_cost_units, 1),
                       util::fmt(r.site_utilization, 3),
                       std::to_string(restarts)});
  }
  std::printf(
      "memory-bid study: demand-weighted WIRE tenants, memory-constrained "
      "site (mean interarrival 300 s)\n%s\n",
      mem_table.render().c_str());
  std::printf("series written to %s/ensemble.csv\n",
              bench::results_dir().c_str());
  return 0;
}
