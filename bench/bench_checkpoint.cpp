// Checkpoint-interval study: hazard-driven Young/Daly scheduling vs the
// static-interval ablation, the legacy fraction salvage model, and no
// checkpointing at all, swept over instance crash rates on PageRank L
// (long tasks — the regime where lost work bites) at the 1-minute charging
// unit.
//
// The figure of merit is total waste = lost work (progress beyond the last
// committed checkpoint, forfeited at every kill) + checkpoint I/O
// slot-seconds (execution stalls while an image writes). Young/Daly spends
// I/O in proportion to sqrt(hazard), so it should strictly beat a fixed
// 10-minute interval everywhere the crash rate is high enough that the
// static interval is no longer near its own optimum (>= 0.1/h here). The
// hazard prior is warm-started at the configured crash rate so the sweep
// isolates the interval policy itself; estimator burn-in from a cold prior
// is covered by the convergence tests.
//
// A second sweep fixes the crash rate and walks the static interval through
// the Young/Daly point, tracing the classic waste-vs-interval U-curve: too
// short burns I/O, too long forfeits work, and the hazard-driven interval
// sits at the bottom without being told the rate.
//
// `--smoke` is the CI tripwire: (a) re-runs four canonical checkpoint-OFF
// cells (quiet, legacy faults, memory+faults, ensemble) and byte-compares
// their hexfloat digests against goldens captured before the checkpoint
// subsystem existed — the disabled path must stay bit-identical; (b) asserts
// on a fast linear workflow that the Young/Daly interval strictly reduces
// waste vs static-600 under a 2/h crash rate. Exits nonzero on violation.
//
// Both modes emit machine-readable BENCH_checkpoint.json next to the CSV.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/controller.h"
#include "ensemble/arbiter.h"
#include "ensemble/arrival.h"
#include "ensemble/driver.h"
#include "ensemble/report.h"
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

constexpr std::uint64_t kSeedRoot = 717;
constexpr std::uint32_t kReps = 5;
/// 256 MB image over a 256 MB/s channel: a 1 s write cost, so the Young/Daly
/// interval at crash rate lambda is sqrt(2 * 3600 / lambda) seconds.
constexpr double kChannelMbPerS = 256.0;

enum class Arm { None, Legacy, Static, YoungDaly };

const char* arm_label(Arm arm) {
  switch (arm) {
    case Arm::None:
      return "none";
    case Arm::Legacy:
      return "legacy-0.5";
    case Arm::Static:
      return "static";
    case Arm::YoungDaly:
      return "young-daly";
  }
  return "unknown";
}

sim::CloudConfig arm_cloud(Arm arm, double crash_rate_per_hour,
                           double static_interval_s) {
  sim::CloudConfig config = exp::paper_cloud(60.0);
  config.faults.crash_rate_per_hour = crash_rate_per_hour;
  switch (arm) {
    case Arm::None:
      break;
    case Arm::Legacy:
      config.checkpoint_fraction = 0.5;
      break;
    case Arm::Static:
      config.checkpoint.channel_bandwidth_mb_per_s = kChannelMbPerS;
      config.checkpoint.interval_policy =
          sim::CheckpointConfig::IntervalPolicy::Static;
      config.checkpoint.static_interval_seconds = static_interval_s;
      break;
    case Arm::YoungDaly:
      config.checkpoint.channel_bandwidth_mb_per_s = kChannelMbPerS;
      config.checkpoint.interval_policy =
          sim::CheckpointConfig::IntervalPolicy::YoungDaly;
      // Warm prior at the true rate, heavy weight: the sweep measures the
      // interval policy, not estimator burn-in.
      config.checkpoint.hazard_prior_per_hour = crash_rate_per_hour;
      config.checkpoint.hazard_prior_weight_hours = 10.0;
      break;
  }
  return config;
}

struct Cell {
  util::RunningStats makespan;
  util::RunningStats cost;
  util::RunningStats restarts;
  util::RunningStats crashes;
  util::RunningStats lost_work_s;
  util::RunningStats ckpt_io_s;
  util::RunningStats waste_s;
  util::RunningStats ckpts_completed;
  util::RunningStats ckpts_lost;
};

void run_into(const dag::Workflow& wf, const sim::CloudConfig& config,
              std::uint64_t seed, Cell* cell) {
  core::WireController controller;
  sim::RunOptions options;
  options.seed = seed;
  options.initial_instances = 1;
  const sim::RunResult r = sim::simulate(wf, controller, config, options);
  cell->makespan.add(r.makespan);
  cell->cost.add(r.cost_units);
  cell->restarts.add(static_cast<double>(r.task_restarts));
  cell->crashes.add(static_cast<double>(r.instance_crashes));
  cell->lost_work_s.add(r.lost_work_seconds);
  cell->ckpt_io_s.add(r.checkpoint_io_slot_seconds);
  cell->waste_s.add(r.lost_work_seconds + r.checkpoint_io_slot_seconds);
  cell->ckpts_completed.add(static_cast<double>(r.checkpoints_completed));
  cell->ckpts_lost.add(static_cast<double>(r.checkpoints_lost));
}

/// One cell of the perf series BENCH_checkpoint.json. `static_interval_s`
/// is 0 when the arm is not static.
bench::JsonFields json_cell(const char* study, const char* policy,
                            double crash_rate, double static_interval_s,
                            std::uint32_t reps, const Cell& c) {
  return {{"study", study},
          {"policy", policy},
          {"crash_rate_per_hour", crash_rate},
          {"static_interval_s", static_interval_s},
          {"reps", reps},
          {"makespan_mean_s", c.makespan.mean()},
          {"cost_mean_units", c.cost.mean()},
          {"restarts_mean", c.restarts.mean()},
          {"crashes_mean", c.crashes.mean()},
          {"lost_work_s_mean", c.lost_work_s.mean()},
          {"ckpt_io_s_mean", c.ckpt_io_s.mean()},
          {"waste_s_mean", c.waste_s.mean()},
          {"ckpts_completed_mean", c.ckpts_completed.mean()},
          {"ckpts_lost_mean", c.ckpts_lost.mean()}};
}

// --- smoke: golden byte-identity -------------------------------------------
//
// Four canonical checkpoint-OFF cells, digests captured on the build
// immediately before the checkpoint scheduling subsystem landed. The
// disabled path (CheckpointConfig::enabled() == false everywhere below)
// must reproduce these bytes exactly — any drift means the subsystem leaked
// into the baseline simulation.
const char* const kGolden[4] = {
    "quiet makespan=0x1.e7fb05c36087cp+11 cost=0x1.e2p+7 "
    "busy=0x1.c58615098a2dbp+14 wasted=0x0p+0 ready=0x1.bcdb05c36087cp+13 "
    "restarts=0 faults=0 crashes=0 oom=0",
    "legacy_faults makespan=0x1.10928f149de01p+12 cost=0x1.cep+7 "
    "busy=0x1.ba54178951969p+14 wasted=0x1.0274b03983fafp+11 "
    "ready=0x1.ac7a3f46fc22cp+13 restarts=20 faults=14 crashes=6 oom=0",
    "memory_faults makespan=0x1.869cf4e947085p+12 cost=0x1.2p+3 "
    "busy=0x1.326af3cae10c2p+13 wasted=0x1.159c2f6794604p+10 "
    "ready=0x1.deed1f9545b4ap+12 restarts=2 faults=0 crashes=2 oom=35",
    "ensemble slowdown_mean=0x1.09903ce5fdb31p+0 "
    "slowdown_max=0x1.43103c1c64d77p+0 cost=0x1.b4p+6 "
    "util=0x1.2d30e57586034p-2 tput=0x1.4af5ecc80ac16p+3",
};

std::string digest_run(const char* name, const sim::RunResult& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "%s makespan=%a cost=%a busy=%a wasted=%a ready=%a "
                "restarts=%u faults=%u crashes=%u oom=%u",
                name, r.makespan, r.cost_units, r.busy_slot_seconds,
                r.wasted_slot_seconds, r.ready_instance_seconds,
                r.task_restarts, r.task_faults, r.instance_crashes,
                r.oom_kills);
  return buf;
}

std::vector<std::string> golden_digests() {
  std::vector<std::string> got;
  const dag::Workflow wf = workload::make_workflow(
      workload::pagerank_profile(workload::Scale::Large), 7);
  {  // quiet Table-I style cell
    sim::CloudConfig config = exp::paper_cloud(60.0);
    core::WireController controller;
    sim::RunOptions options;
    options.seed = util::derive_seed(kSeedRoot, 0);
    options.initial_instances = 1;
    got.push_back(
        digest_run("quiet", sim::simulate(wf, controller, config, options)));
  }
  {  // legacy checkpoint_fraction salvage under faults
    sim::CloudConfig config = exp::paper_cloud(60.0);
    config.checkpoint_fraction = 0.5;
    config.faults.crash_rate_per_hour = 2.0;
    config.faults.task_failure_prob = 0.05;
    core::WireController controller;
    sim::RunOptions options;
    options.seed = util::derive_seed(kSeedRoot, 11);
    options.initial_instances = 1;
    got.push_back(digest_run("legacy_faults",
                             sim::simulate(wf, controller, config, options)));
  }
  {  // memory dimension + faults
    const dag::Workflow mem_wf = workload::make_workflow(
        workload::epigenomics_profile(workload::Scale::Small), 3);
    sim::CloudConfig config = exp::paper_cloud(900.0);
    config.memory.instance_mem_mb = 4096.0;
    config.memory.noise_sigma = 0.2;
    config.faults.crash_rate_per_hour = 1.0;
    core::WireController controller;
    sim::RunOptions options;
    options.seed = util::derive_seed(kSeedRoot, 22);
    options.initial_instances = 1;
    got.push_back(digest_run(
        "memory_faults", sim::simulate(mem_wf, controller, config, options)));
  }
  {  // ensemble cell: demand-weighted arbitration, WIRE tenants
    ensemble::PoissonArrivalConfig stream;
    stream.mean_interarrival_seconds = 300.0;
    stream.job_count = 50;
    stream.seed = 1905;
    const std::vector<workload::WorkflowProfile> profiles = {
        workload::tpch1_profile(workload::Scale::Small),
        workload::tpch6_profile(workload::Scale::Small),
        workload::pagerank_profile(workload::Scale::Small),
        workload::epigenomics_profile(workload::Scale::Small)};
    const ensemble::ArrivalProcess arrivals =
        ensemble::ArrivalProcess::poisson(stream, profiles.size());
    const sim::CloudConfig site = exp::paper_cloud(900.0);
    ensemble::EnsembleOptions options;
    options.strategy = ensemble::ArbiterStrategy::DemandWeighted;
    options.site_cap = site.max_instances;
    ensemble::EnsembleDriver driver(profiles, arrivals,
                                    exp::sharded_policy_factory(exp::PolicyKind::Wire),
                                    site, options);
    const ensemble::EnsembleReport report = driver.run();
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "ensemble slowdown_mean=%a slowdown_max=%a cost=%a util=%a "
                  "tput=%a",
                  report.mean_slowdown, report.max_slowdown,
                  report.total_cost_units, report.site_utilization,
                  report.throughput_jobs_per_hour);
    got.emplace_back(buf);
  }
  return got;
}

int run_smoke() {
  std::printf("bench_checkpoint --smoke (seed root %llu)\n",
              static_cast<unsigned long long>(kSeedRoot));
  int rc = 0;

  std::printf("checkpoint-OFF byte-identity vs pre-subsystem goldens:\n");
  const std::vector<std::string> got = golden_digests();
  bool identity = true;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const bool ok = got[i] == kGolden[i];
    std::printf("  %s %s\n", ok ? "OK  " : "FAIL", got[i].c_str());
    if (!ok) {
      std::printf("  want %s\n", kGolden[i]);
      identity = false;
      rc = 1;
    }
  }

  // Waste-reduction tripwire: 32 x 600 s tasks, 2 crashes per instance-hour,
  // 1 s write cost. Young/Daly (warm prior) checkpoints every ~60 s; the
  // 10-minute static interval barely checkpoints inside a task at all, so
  // nearly every crash forfeits full progress.
  std::printf("young-daly vs static-600 waste (2 crashes/h):\n");
  const dag::Workflow wf = workload::linear_workflow(8, 4, 600.0);
  Cell yd, st;
  for (std::uint32_t rep = 0; rep < 3; ++rep) {
    const std::uint64_t seed = util::derive_seed(kSeedRoot, 8000 + rep);
    run_into(wf, arm_cloud(Arm::YoungDaly, 2.0, 600.0), seed, &yd);
    run_into(wf, arm_cloud(Arm::Static, 2.0, 600.0), seed, &st);
  }
  std::printf(
      "  young-daly waste=%.1fs (lost=%.1f io=%.1f ckpts=%.0f)\n"
      "  static-600 waste=%.1fs (lost=%.1f io=%.1f ckpts=%.0f)\n",
      yd.waste_s.mean(), yd.lost_work_s.mean(), yd.ckpt_io_s.mean(),
      yd.ckpts_completed.mean(), st.waste_s.mean(), st.lost_work_s.mean(),
      st.ckpt_io_s.mean(), st.ckpts_completed.mean());
  if (yd.ckpts_completed.mean() <= 0.0) {
    std::printf("  FAIL: young-daly never committed a checkpoint\n");
    rc = 1;
  }
  if (yd.waste_s.mean() >= st.waste_s.mean()) {
    std::printf("  FAIL: hazard-driven interval did not reduce waste\n");
    rc = 1;
  }

  bench::write_study_json(
      "checkpoint", /*smoke=*/true,
      {{"golden_identity", identity}, {"seed_root", kSeedRoot}},
      {json_cell("smoke", arm_label(Arm::YoungDaly), 2.0, 0.0, 3u, yd),
       json_cell("smoke", arm_label(Arm::Static), 2.0, 600.0, 3u, st)},
      "perf-trajectory series");
  if (rc != 0) std::printf("bench_checkpoint --smoke FAILED\n");
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return run_smoke();
  }

  const dag::Workflow wf = workload::make_workflow(
      workload::pagerank_profile(workload::Scale::Large), 7);
  const std::vector<Arm> arms = {Arm::None, Arm::Legacy, Arm::Static,
                                 Arm::YoungDaly};
  const std::vector<double> crash_rates = {0.1, 0.5, 2.0};
  constexpr double kStaticDefault = 600.0;
  // Interval sweep at a fixed mid rate, tracing the U-curve through the
  // Young/Daly point (sqrt(2 * 1 * 3600 / 0.5) = 120 s).
  constexpr double kSweepRate = 0.5;
  const std::vector<double> intervals = {60.0,  120.0,  300.0,
                                         600.0, 1200.0, 2400.0};

  struct Job {
    const char* study;
    Arm arm;
    double crash_rate;
    double interval;
  };
  std::vector<Job> jobs;
  for (double rate : crash_rates) {
    for (Arm arm : arms) {
      jobs.push_back(Job{"policy_x_rate", arm, rate, kStaticDefault});
    }
  }
  const std::size_t sweep_begin = jobs.size();
  for (double interval : intervals) {
    jobs.push_back(Job{"interval_sweep", Arm::Static, kSweepRate, interval});
  }
  jobs.push_back(Job{"interval_sweep", Arm::YoungDaly, kSweepRate, 0.0});

  std::vector<Cell> cells(jobs.size());
  util::parallel_for(jobs.size(), [&](std::size_t j) {
    const Job& job = jobs[j];
    for (std::uint32_t rep = 0; rep < kReps; ++rep) {
      run_into(wf, arm_cloud(job.arm, job.crash_rate, job.interval),
               util::derive_seed(kSeedRoot, j * 16 + rep), &cells[j]);
    }
  });

  std::printf(
      "Checkpoint-interval study: PageRank L under WIRE, u = 1 min, 1 s "
      "write cost (%u repetitions, seed root %llu)\nwaste = lost work + "
      "checkpoint I/O slot-seconds\n\n",
      kReps, static_cast<unsigned long long>(kSeedRoot));

  util::CsvWriter csv(bench::results_dir() + "/checkpoint.csv");
  csv.write_row({"study", "policy", "crash_rate_per_hour",
                 "static_interval_s", "reps", "makespan_mean_s",
                 "cost_mean_units", "restarts_mean", "crashes_mean",
                 "lost_work_s_mean", "ckpt_io_s_mean", "waste_s_mean",
                 "ckpts_completed_mean", "ckpts_lost_mean"});
  std::vector<bench::JsonFields> json;
  json.reserve(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const Job& job = jobs[j];
    const Cell& cell = cells[j];
    csv.write_row(
        {job.study, arm_label(job.arm), util::fmt(job.crash_rate, 2),
         util::fmt(job.arm == Arm::Static ? job.interval : 0.0, 1),
         std::to_string(kReps), util::fmt(cell.makespan.mean(), 1),
         util::fmt(cell.cost.mean(), 3), util::fmt(cell.restarts.mean(), 2),
         util::fmt(cell.crashes.mean(), 2),
         util::fmt(cell.lost_work_s.mean(), 1),
         util::fmt(cell.ckpt_io_s.mean(), 1),
         util::fmt(cell.waste_s.mean(), 1),
         util::fmt(cell.ckpts_completed.mean(), 2),
         util::fmt(cell.ckpts_lost.mean(), 2)});
    json.push_back(json_cell(job.study, arm_label(job.arm), job.crash_rate,
                             job.arm == Arm::Static ? job.interval : 0.0,
                             kReps, cell));
  }

  util::TextTable table;
  std::vector<std::string> header{"policy \\ crash rate"};
  for (double rate : crash_rates) header.push_back(util::fmt(rate, 1) + "/h");
  table.set_header(std::move(header));
  for (std::size_t a = 0; a < arms.size(); ++a) {
    std::vector<std::string> row{arm_label(arms[a])};
    for (std::size_t r = 0; r < crash_rates.size(); ++r) {
      const Cell& cell = cells[r * arms.size() + a];
      row.push_back(util::fmt(cell.waste_s.mean(), 0) + "s waste / " +
                    util::fmt(cell.makespan.mean(), 0) + "s / " +
                    util::fmt(cell.restarts.mean(), 1) + "rst");
    }
    table.add_row(std::move(row));
  }
  std::printf("interval policy x crash rate\n%s\n", table.render().c_str());

  util::TextTable sweep;
  sweep.set_header({"static interval", "waste [s]", "lost work [s]",
                    "ckpt I/O [s]", "ckpts", "makespan [s]"});
  for (std::size_t j = sweep_begin; j < jobs.size(); ++j) {
    const Job& job = jobs[j];
    const Cell& cell = cells[j];
    sweep.add_row({job.arm == Arm::YoungDaly
                       ? std::string("young-daly")
                       : util::fmt(job.interval, 0) + "s",
                   util::fmt(cell.waste_s.mean(), 1),
                   util::fmt(cell.lost_work_s.mean(), 1),
                   util::fmt(cell.ckpt_io_s.mean(), 1),
                   util::fmt(cell.ckpts_completed.mean(), 1),
                   util::fmt(cell.makespan.mean(), 0)});
  }
  std::printf("waste vs static interval at %.1f crashes/h\n%s\n", kSweepRate,
              sweep.render().c_str());
  std::printf("series written to %s/checkpoint.csv\n",
              bench::results_dir().c_str());
  bench::write_study_json("checkpoint", /*smoke=*/false,
                          {{"seed_root", kSeedRoot}}, json,
                          "perf-trajectory series");
  return 0;
}
