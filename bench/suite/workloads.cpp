#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <functional>
#include <utility>

#include "core/controller.h"
#include "ensemble/arbiter.h"
#include "ensemble/arrival.h"
#include "ensemble/driver.h"
#include "ensemble/report.h"
#include "exp/settings.h"
#include "policies/budget.h"
#include "sim/driver.h"
#include "util/rng.h"
#include "workload/generators.h"
#include "workload/profiles.h"

namespace wire::suite {

namespace {

/// Table-I DAGs are instantiated at the seed exp::MatrixOptions uses, so the
/// workflows match the paper's characterization under every benchmark seed;
/// the benchmark seed varies the runs, not the DAGs.
constexpr std::uint64_t kTable1DagSeed = 7;
/// Stream of the per-op bandit explorer seed (util::derive_seed).
constexpr std::uint64_t kBanditStream = 0xB17;

/// FNV-1a over the bit pattern of every field, which is exactly the
/// information a hexfloat rendering carries.
class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ p[i]) * 1099511628211ull;
    }
  }
  void u(std::uint64_t v) { bytes(&v, sizeof v); }
  void f(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u(bits);
  }
  void s(const std::string& v) {
    u(v.size());
    bytes(v.data(), v.size());
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

std::uint64_t digest_run(const sim::RunResult& r) {
  Digest d;
  d.s(r.policy_name);
  for (double v : {r.makespan, r.cost_units, r.ready_instance_seconds,
                   r.busy_slot_seconds, r.wasted_slot_seconds, r.utilization,
                   r.checkpoint_io_slot_seconds, r.lost_work_seconds,
                   r.mem_reserved_mb_seconds, r.mem_used_mb_seconds}) {
    d.f(v);
  }
  for (std::uint32_t v :
       {r.peak_instances, r.task_restarts, r.control_ticks, r.task_faults,
        r.instance_crashes, r.provision_failures, r.straggler_boots,
        r.monitor_dropouts, r.checkpoints_completed, r.checkpoints_lost,
        r.oom_kills}) {
    d.u(v);
  }
  d.u(r.quarantined_tasks.size());
  for (dag::TaskId t : r.quarantined_tasks) d.u(t);
  d.u(r.fault_trace.size());
  for (const sim::FaultEvent& e : r.fault_trace) {
    d.f(e.time);
    d.u(static_cast<std::uint64_t>(e.kind));
    d.u(e.subject);
    d.u(e.attempt);
    d.f(e.detail);
  }
  d.u(r.task_records.size());
  for (const sim::TaskRuntime& t : r.task_records) {
    d.u(static_cast<std::uint64_t>(t.phase));
    for (double v : {t.ready_at, t.occupancy_start, t.exec_start,
                     t.completed_at, t.transfer_in_time, t.exec_time,
                     t.transfer_out_time, t.salvaged_exec,
                     t.last_failed_elapsed, t.mem_reservation_mb,
                     t.true_peak_mem_mb, t.ckpt_durable_exec,
                     t.ckpt_progress_exec, t.ckpt_pure_exec}) {
      d.f(v);
    }
    for (std::uint64_t v :
         {std::uint64_t{t.remaining_preds}, std::uint64_t{t.instance},
          std::uint64_t{t.slot}, std::uint64_t{t.attempts},
          std::uint64_t{t.high_priority}, std::uint64_t{t.failed_attempts},
          std::uint64_t{t.quarantined}, std::uint64_t{t.oom_attempts}}) {
      d.u(v);
    }
  }
  d.u(r.pool_timeline.size());
  for (const sim::PoolSample& p : r.pool_timeline) {
    d.f(p.time);
    d.u(p.live_instances);
    d.u(p.ready_tasks);
    d.u(p.running_tasks);
  }
  return d.value();
}

std::uint64_t digest_report(const ensemble::EnsembleReport& r) {
  Digest d;
  d.s(r.tenant_policy);
  d.s(r.arbiter_strategy);
  d.u(r.site_cap);
  d.u(r.slots_per_instance);
  d.u(r.jobs.size());
  for (const ensemble::JobOutcome& j : r.jobs) {
    d.u(j.job);
    d.s(j.workflow_name);
    for (double v : {j.arrival_seconds, j.admitted_seconds,
                     j.completed_seconds, j.queue_wait_seconds,
                     j.makespan_seconds, j.dedicated_makespan_seconds,
                     j.slowdown, j.cost_units, j.budget_units,
                     j.over_budget_units}) {
      d.f(v);
    }
    for (std::uint32_t v : {j.peak_instances, j.task_restarts, j.task_faults,
                            j.instance_crashes, j.quarantined_tasks}) {
      d.u(v);
    }
  }
  for (double v : {r.horizon_seconds, r.total_cost_units, r.site_utilization,
                   r.allocation_ratio, r.throughput_jobs_per_hour,
                   r.mean_queue_wait_seconds, r.mean_slowdown, r.max_slowdown,
                   r.total_over_budget_units}) {
    d.f(v);
  }
  for (std::uint32_t v : {r.total_task_faults, r.total_instance_crashes,
                          r.total_quarantined_tasks, r.jobs_over_budget}) {
    d.u(v);
  }
  return d.value();
}

bool finite_all(std::initializer_list<double> values) {
  return std::all_of(values.begin(), values.end(),
                     [](double v) { return std::isfinite(v); });
}

/// Outside checks on one single run; returns the first failure, or "".
/// Counts completed tasks into `completed`.
std::string check_run(const dag::Workflow& workflow, const sim::RunResult& r,
                      std::uint64_t* completed) {
  if (r.task_records.size() != workflow.task_count()) {
    return "task_records does not cover the workflow";
  }
  std::size_t quarantined = 0;
  *completed = 0;
  for (const sim::TaskRuntime& t : r.task_records) {
    if (t.phase == sim::TaskPhase::Completed) {
      ++*completed;
    } else if (t.quarantined) {
      ++quarantined;
    } else {
      return "a task ended neither completed nor quarantined";
    }
  }
  if (quarantined != r.quarantined_tasks.size()) {
    return "quarantined task records disagree with quarantined_tasks";
  }
  if (!finite_all({r.makespan, r.cost_units, r.utilization,
                   r.ready_instance_seconds, r.busy_slot_seconds,
                   r.wasted_slot_seconds, r.checkpoint_io_slot_seconds})) {
    return "non-finite run metric";
  }
  if (!(r.makespan > 0.0 && r.cost_units > 0.0 && r.utilization > 0.0 &&
        r.utilization <= 1.0)) {
    return "run metric out of range";
  }
  return "";
}

/// Outside checks on one ensemble report; returns the first failure, or "".
std::string check_report(const ensemble::EnsembleReport& r,
                         const ensemble::ArrivalProcess& arrivals) {
  if (r.jobs.size() != arrivals.size()) return "report lost jobs";
  double cost = 0.0;
  for (std::size_t k = 0; k < r.jobs.size(); ++k) {
    const ensemble::JobOutcome& j = r.jobs[k];
    if (j.job != arrivals.jobs()[k].job) return "report out of arrival order";
    if (!finite_all({j.queue_wait_seconds, j.makespan_seconds, j.slowdown,
                     j.cost_units, j.completed_seconds})) {
      return "non-finite job outcome";
    }
    if (j.completed_seconds < j.arrival_seconds || j.makespan_seconds <= 0.0) {
      return "job completed before it arrived";
    }
    cost += j.cost_units;
  }
  if (cost != r.total_cost_units) {
    return "per-job cost does not sum to total_cost_units";
  }
  if (!finite_all({r.horizon_seconds, r.site_utilization, r.allocation_ratio,
                   r.mean_queue_wait_seconds, r.mean_slowdown}) ||
      !(r.site_utilization > 0.0 && r.site_utilization <= 1.0)) {
    return "ensemble aggregate out of range";
  }
  return "";
}

/// Checks the arbiter contract at one site sample; returns "" when it holds.
std::string check_sample(const ensemble::SiteSample& s) {
  std::uint64_t live = 0;
  std::uint64_t shares = 0;
  for (std::size_t k = 0; k < s.jobs.size(); ++k) {
    if (s.live[k] > s.shares[k]) return "a tenant holds more than its share";
    live += s.live[k];
    shares += s.shares[k];
  }
  if (live != s.live_total) return "live_total is not the sum of live";
  if (s.live_total > s.site_cap || shares > s.site_cap) {
    return "site sample exceeds site_cap";
  }
  return "";
}

std::uint64_t profile_task_count(const workload::WorkflowProfile& profile) {
  std::uint64_t n = 0;
  for (const workload::StageProfile& stage : profile.stages) {
    n += stage.task_count;
  }
  return n;
}

// --- Single-run workloads ---------------------------------------------------

struct SimSpec {
  std::vector<exp::PolicyKind> policies;
  std::vector<sim::CloudConfig> clouds;
  std::uint32_t reps = 0;
};

class SimWorkload final : public Workload {
 public:
  explicit SimWorkload(SimSpec spec) : spec_(std::move(spec)) {}

  std::size_t op_count() const override { return ops_.size(); }

  void setup(std::uint64_t seed, Recorder* recorder) override {
    const Clock::time_point t0 = Clock::now();
    workflows_.clear();
    for (const workload::WorkflowProfile& p : workload::table1_profiles()) {
      workflows_.push_back(workload::make_workflow(p, kTable1DagSeed));
    }
    if (recorder != nullptr) {
      const double s = seconds_between(t0, Clock::now());
      recorder->update([s](LayerTotals& t) { t.make_workflow_s += s; });
    }
    ops_.clear();
    for (std::uint32_t rep = 0; rep < spec_.reps; ++rep) {
      std::uint64_t cell = 0;
      for (std::size_t w = 0; w < workflows_.size(); ++w) {
        for (exp::PolicyKind policy : spec_.policies) {
          for (std::size_t c = 0; c < spec_.clouds.size(); ++c, ++cell) {
            ops_.push_back(
                Op{w, policy, c, util::derive_seed(seed, cell * 1000 + rep)});
          }
        }
      }
    }
  }

 protected:
  OpResult run_op(std::size_t i, OpMode, Recorder* recorder) override {
    const Op& op = ops_.at(i);
    const dag::Workflow& workflow = workflows_[op.workflow];
    const sim::CloudConfig& cloud = spec_.clouds[op.cloud];
    sim::RunOptions options;
    options.seed = op.seed;
    options.initial_instances = exp::initial_instances(op.policy, cloud);

    OpResult r;
    sim::RunResult result;
    const Clock::time_point t0 = Clock::now();
    if (recorder == nullptr) {
      const std::unique_ptr<sim::ScalingPolicy> policy =
          exp::make_policy(op.policy);
      result = sim::simulate(workflow, *policy, cloud, options);
    } else {
      TimedPolicy policy(exp::make_policy(op.policy),
                         op.policy == exp::PolicyKind::Wire
                             ? PolicyLayer::kCore
                             : PolicyLayer::kBaseline,
                         *recorder);
      result = stepped_run(workflow, policy, cloud, options, *recorder);
    }
    r.host_s = seconds_between(t0, Clock::now());

    r.error = check_run(workflow, result, &r.tasks_completed);
    r.digest = digest_run(result);
    r.jobs = 1;
    r.response_s = result.makespan;
    r.cost_units = result.cost_units;
    r.utilization = result.utilization;
    return r;
  }

 private:
  struct Op {
    std::size_t workflow = 0;
    exp::PolicyKind policy = exp::PolicyKind::Wire;
    std::size_t cloud = 0;
    std::uint64_t seed = 0;
  };

  SimSpec spec_;
  std::vector<dag::Workflow> workflows_;
  std::vector<Op> ops_;
};

// --- Ensemble workloads -----------------------------------------------------

struct EnsembleSpec {
  std::vector<workload::WorkflowProfile> profiles;
  sim::CloudConfig cloud;
  ensemble::EnsembleOptions options;
  /// budget_units == 0: tenants run unwrapped.
  policies::BudgetOptions budget;
  core::WireOptions wire;
  std::uint32_t ops = 0;
  /// The job stream of one op, from that op's seed.
  std::function<ensemble::ArrivalProcess(std::uint64_t)> arrivals;
};

class EnsembleWorkload final : public Workload {
 public:
  explicit EnsembleWorkload(EnsembleSpec spec) : spec_(std::move(spec)) {
    for (const workload::WorkflowProfile& p : spec_.profiles) {
      task_counts_.push_back(profile_task_count(p));
    }
  }

  std::size_t op_count() const override { return arrivals_.size(); }

  void setup(std::uint64_t seed, Recorder*) override {
    arrivals_.clear();
    bandit_seeds_.clear();
    for (std::uint32_t i = 0; i < spec_.ops; ++i) {
      const std::uint64_t op_seed = util::derive_seed(seed, i);
      arrivals_.push_back(spec_.arrivals(op_seed));
      bandit_seeds_.push_back(util::derive_seed(op_seed, kBanditStream));
    }
  }

 protected:
  OpResult run_op(std::size_t i, OpMode mode, Recorder* recorder) override {
    const ensemble::ArrivalProcess& arrivals = arrivals_.at(i);
    core::WireOptions wire = spec_.wire;
    wire.bandit.seed = bandit_seeds_[i];
    const ensemble::ShardedPolicyFactory factory = make_factory(wire);

    std::string sample_error;
    std::vector<ensemble::SiteSample> samples;
    double listener_s = 0.0;
    const auto listener = [&](const ensemble::SiteSample& sample) {
      const Clock::time_point t0 = Clock::now();
      if (sample_error.empty()) sample_error = check_sample(sample);
      if (recorder != nullptr) samples.push_back(sample);
      listener_s += seconds_between(t0, Clock::now());
    };

    OpResult r;
    ensemble::EnsembleReport report;
    double run_s = 0.0;
    double plan_s = 0.0;
    const Clock::time_point t0 = Clock::now();
    {
      ensemble::EnsembleDriver driver(
          spec_.profiles, arrivals,
          recorder == nullptr ? factory : timed_factory(wire, *recorder),
          spec_.cloud, spec_.options);
      // The listener makes the driver build a SiteSample at every serial
      // event, about a tenth of ensemble_dense's op time, so timed ops go
      // without it.
      if (mode != OpMode::kTimed) driver.set_site_listener(listener);
      reset_thread_policy_time();
      const Clock::time_point run0 = Clock::now();
      report = driver.run();
      run_s = seconds_between(run0, Clock::now());
      plan_s = thread_policy_time().seconds;
    }
    r.host_s = seconds_between(t0, Clock::now());

    r.error = check_report(report, arrivals);
    if (r.error.empty()) r.error = sample_error;
    r.digest = digest_report(report);
    r.jobs = report.jobs.size();
    for (std::size_t k = 0; k < report.jobs.size(); ++k) {
      const ensemble::JobOutcome& j = report.jobs[k];
      const std::uint64_t tasks =
          task_counts_[arrivals.jobs()[k].profile_index];
      if (j.quarantined_tasks > tasks) {
        r.error = "more tasks quarantined than the job has";
      }
      r.tasks_completed += tasks - std::min<std::uint64_t>(
                                       tasks, j.quarantined_tasks);
      r.response_s += j.completed_seconds - j.arrival_seconds;
      r.cost_units += j.cost_units;
    }
    r.utilization = report.site_utilization;

    if (recorder != nullptr) {
      record_layers(report, samples, run_s, plan_s, listener_s, *recorder);
      if (spec_.options.dedicated_baseline && r.error.empty()) {
        r.error = replay_dedicated(arrivals, report, factory, *recorder);
      }
    }
    return r;
  }

 private:
  ensemble::ShardedPolicyFactory make_factory(
      const core::WireOptions& wire) const {
    if (spec_.budget.budget_units > 0.0) {
      return exp::sharded_budget_policy_factory(exp::PolicyKind::Wire,
                                                spec_.budget, wire);
    }
    return exp::sharded_policy_factory(exp::PolicyKind::Wire, wire);
  }

  /// make_factory with every controller, and every budget wrapper around
  /// one, timed. Same construction order as exp::sharded_budget_policy_factory
  /// so the minted policies are result-identical.
  ensemble::ShardedPolicyFactory timed_factory(const core::WireOptions& wire,
                                               Recorder& recorder) const {
    auto inner = exp::sharded_policy_factory(exp::PolicyKind::Wire, wire);
    const policies::BudgetOptions budget = spec_.budget;
    return [inner, budget, &recorder](std::uint32_t shard)
               -> std::unique_ptr<sim::ScalingPolicy> {
      auto timed = std::make_unique<TimedPolicy>(
          inner(shard), PolicyLayer::kCore, recorder);
      if (budget.budget_units <= 0.0) return timed;
      return std::make_unique<TimedPolicy>(
          std::make_unique<policies::BudgetPolicy>(std::move(timed), budget),
          PolicyLayer::kBudget, recorder);
    };
  }

  void record_layers(const ensemble::EnsembleReport& report,
                     const std::vector<ensemble::SiteSample>& samples,
                     double run_s, double plan_s, double listener_s,
                     Recorder& recorder) const {
    // Replay estimate of the arbiter's share of run_s: the rows are rebuilt
    // from each sample (live from `live`, demand proxied by the granted
    // share), so the arithmetic matches the driver's call only in shape.
    const ensemble::ArbiterConfig config{spec_.options.site_cap};
    std::vector<ensemble::TenantDemand> rows;
    double replay_s = 0.0;
    std::uint64_t fanin = 0;
    std::uint64_t peak = 0;
    for (const ensemble::SiteSample& s : samples) {
      rows.resize(s.jobs.size());
      for (std::size_t k = 0; k < rows.size(); ++k) {
        rows[k] = ensemble::TenantDemand{};
        rows[k].job = s.jobs[k];
        rows[k].arrival_seconds = static_cast<double>(k);
        rows[k].live_instances = s.live[k];
        rows[k].requested_pool = s.shares[k];
        if (spec_.budget.budget_units > 0.0) {
          rows[k].remaining_budget_units = spec_.budget.budget_units;
        }
      }
      const Clock::time_point t0 = Clock::now();
      ensemble::allocate_shares(spec_.options.strategy, config, rows);
      replay_s += seconds_between(t0, Clock::now());
      fanin += rows.size();
      peak = std::max<std::uint64_t>(peak, rows.size());
    }
    std::uint64_t at_budget = 0;
    double queue_wait = 0.0;
    double slowdown = 0.0;
    for (const ensemble::JobOutcome& j : report.jobs) {
      queue_wait += j.queue_wait_seconds;
      slowdown += j.slowdown;
      if (spec_.budget.budget_units > 0.0 &&
          j.cost_units >= 0.9 * spec_.budget.budget_units) {
        ++at_budget;
      }
    }
    recorder.update([&](LayerTotals& t) {
      t.ensemble_run_s += run_s;
      t.ensemble_self_s += run_s - plan_s - listener_s;
      t.serial_events += samples.size();
      t.arbiter_fanin += fanin;
      t.peak_live_tenants = std::max(t.peak_live_tenants, peak);
      t.arbiter_replay_s += replay_s;
      t.ensemble_jobs += report.jobs.size();
      t.queue_wait_s += queue_wait;
      t.slowdown += slowdown;
      t.allocation_ratio += report.allocation_ratio;
      t.jobs_at_budget += at_budget;
      ++t.ensemble_ops;
    });
  }

  /// Re-runs every job's dedicated-site counterfactual through the stepped
  /// engine loop. Its makespan must equal the report's
  /// dedicated_makespan_seconds exactly; its engine-layer numbers are the
  /// sim.* metrics of this workload. The replay's plan calls are timed into
  /// a scratch recorder, so stepped_run can subtract them, and then dropped:
  /// the driver's own run already counted those calls.
  std::string replay_dedicated(const ensemble::ArrivalProcess& arrivals,
                               const ensemble::EnsembleReport& report,
                               const ensemble::ShardedPolicyFactory& factory,
                               Recorder& recorder) const {
    Recorder scratch;
    sim::CloudConfig dedicated = spec_.cloud;
    dedicated.max_instances = spec_.options.site_cap;
    std::string error;
    for (std::size_t k = 0; k < arrivals.size() && error.empty(); ++k) {
      const ensemble::JobArrival& a = arrivals.jobs()[k];
      const dag::Workflow workflow = workload::make_workflow(
          spec_.profiles[a.profile_index], a.workflow_seed);
      // Which shard's scratch arena a policy plans on never changes a result.
      TimedPolicy policy(factory(0), PolicyLayer::kCore, scratch);
      sim::RunOptions options;
      options.seed = a.run_seed;
      options.initial_instances = spec_.options.initial_instances;
      options.max_sim_seconds = spec_.options.max_sim_seconds;
      const sim::RunResult result =
          stepped_run(workflow, policy, dedicated, options, recorder);
      std::uint64_t completed = 0;
      error = check_run(workflow, result, &completed);
      if (error.empty() &&
          result.makespan != report.jobs[k].dedicated_makespan_seconds) {
        error = "stepped dedicated replay disagrees with the driver";
      }
    }
    return error;
  }

  EnsembleSpec spec_;
  std::vector<std::uint64_t> task_counts_;
  std::vector<ensemble::ArrivalProcess> arrivals_;
  std::vector<std::uint64_t> bandit_seeds_;
};

// --- The four workloads -----------------------------------------------------

std::unique_ptr<Workload> table1_matrix(bool smoke) {
  SimSpec spec;
  spec.policies = exp::all_policies();
  for (double u : exp::paper_charging_units()) {
    spec.clouds.push_back(exp::paper_cloud(u));
  }
  spec.reps = smoke ? 1 : 12;
  return std::make_unique<SimWorkload>(std::move(spec));
}

/// Near-continuous monitoring (§III-E): a 10 s MAPE interval at the paper's
/// finest charging unit, so WireController::plan dominates host time.
std::unique_ptr<Workload> wire_fine_control(bool smoke) {
  SimSpec spec;
  spec.policies = {exp::PolicyKind::Wire};
  sim::CloudConfig cloud = exp::paper_cloud(60.0);
  cloud.lag_seconds = 10.0;
  spec.clouds = {cloud};
  spec.reps = smoke ? 4 : 72;
  return std::make_unique<SimWorkload>(std::move(spec));
}

/// 1024 WIRE tenants landing 50 ms apart on a quiet site (no stochastic
/// variability): the whole front is live at once, so every serial event
/// arbitrates over ~1k rows.
std::unique_ptr<Workload> ensemble_dense(bool smoke) {
  EnsembleSpec spec;
  spec.profiles = {workload::tpch6_profile(workload::Scale::Small),
                   workload::pagerank_profile(workload::Scale::Small)};
  sim::CloudConfig& cloud = spec.cloud;
  cloud.lag_seconds = 180.0;
  cloud.charging_unit_seconds = 900.0;
  cloud.slots_per_instance = 4;
  cloud.variability.instance_speed_sigma = 0.0;
  cloud.variability.interference_sigma = 0.0;
  cloud.variability.transfer_noise_sigma = 0.0;
  cloud.variability.transfer_latency_seconds = 0.0;
  cloud.variability.bandwidth_mb_per_s = 1e12;
  spec.options.strategy = ensemble::ArbiterStrategy::DemandWeighted;
  spec.options.site_cap = 256;
  spec.options.dedicated_baseline = false;
  spec.options.shards = 1;
  spec.ops = smoke ? 1 : 8;
  spec.arrivals = [](std::uint64_t seed) {
    constexpr std::uint32_t kTenants = 1024;
    std::vector<ensemble::JobArrival> trace(kTenants);
    for (std::uint32_t k = 0; k < kTenants; ++k) {
      trace[k].arrival_seconds = 0.05 * k;
      trace[k].profile_index = k % 2;
    }
    return ensemble::ArrivalProcess::fixed_trace(std::move(trace), seed);
  };
  return std::make_unique<EnsembleWorkload>(std::move(spec));
}

/// Every extension on at once: faults, memory, staggered checkpoints, hard
/// budgets under budget-weighted arbitration, the bandit, crash-aware
/// steering and dedicated baselines.
std::unique_ptr<Workload> ensemble_chaos(bool smoke) {
  EnsembleSpec spec;
  spec.profiles = {workload::epigenomics_profile(workload::Scale::Small),
                   workload::tpch1_profile(workload::Scale::Small),
                   workload::tpch6_profile(workload::Scale::Small),
                   workload::pagerank_profile(workload::Scale::Small)};
  sim::CloudConfig& cloud = spec.cloud;
  cloud = exp::paper_cloud(900.0);
  cloud.faults.crash_rate_per_hour = 1.0;
  cloud.faults.crash_notice_seconds = 30.0;
  cloud.faults.provision_failure_prob = 0.05;
  cloud.faults.straggler_prob = 0.1;
  cloud.faults.task_failure_prob = 0.01;
  cloud.faults.monitor_dropout_prob = 0.05;
  cloud.memory.instance_mem_mb = 16384.0;
  cloud.memory.noise_sigma = 0.2;
  cloud.checkpoint.channel_bandwidth_mb_per_s = 200.0;
  // Small-workflow tasks run for seconds to a few minutes, shorter than any
  // Young/Daly interval at one crash per hour, so only a fixed 30 s interval
  // makes the engine's checkpoint-write path run at all.
  cloud.checkpoint.interval_policy =
      sim::CheckpointConfig::IntervalPolicy::Static;
  cloud.checkpoint.static_interval_seconds = 30.0;
  // Two strikes, so transient failures produce poison-task quarantines.
  cloud.retry.max_attempts = 2;
  spec.options.strategy = ensemble::ArbiterStrategy::BudgetWeighted;
  // About 20 tenants are live at the peak: a 16-instance site makes the
  // arbiter bind and tenants queue.
  spec.options.site_cap = 16;
  spec.options.dedicated_baseline = true;
  // One shard, so no pool thread: an op that hands shard work between two
  // threads thousands of times waits on whichever one a loaded host has
  // descheduled. Reports are byte-identical for every shard count.
  spec.options.shards = 1;
  spec.options.stagger_checkpoints = true;
  // Three units binds the costliest quarter of the stream (Genome S).
  spec.options.budget_units = 3.0;
  spec.budget.budget_units = 3.0;
  spec.budget.mode = policies::BudgetMode::kHardCap;
  spec.wire.bandit.arms = 4;
  spec.wire.crash_aware_steering = true;
  spec.ops = smoke ? 1 : 20;
  // Poisson arrivals that cycle through the four workflows: a balanced mix
  // keeps the simulated metrics' spread across seeds small enough to bound.
  const std::size_t profiles = spec.profiles.size();
  spec.arrivals = [profiles](std::uint64_t seed) {
    constexpr std::uint32_t kJobs = 200;
    constexpr double kMeanInterarrivalSeconds = 120.0;
    util::Rng rng(seed);
    std::vector<ensemble::JobArrival> trace(kJobs);
    double t = 0.0;
    for (std::uint32_t k = 0; k < kJobs; ++k) {
      t += rng.exponential(kMeanInterarrivalSeconds);
      trace[k].arrival_seconds = t;
      trace[k].profile_index = k % profiles;
    }
    return ensemble::ArrivalProcess::fixed_trace(std::move(trace), seed);
  };
  return std::make_unique<EnsembleWorkload>(std::move(spec));
}

}  // namespace

OpResult Workload::run(std::size_t i, OpMode mode, Recorder* recorder) {
  if ((mode == OpMode::kTraced) != (recorder != nullptr)) {
    OpResult r;
    r.error = "a recorder goes with, and only with, OpMode::kTraced";
    return r;
  }
  try {
    return run_op(i, mode, recorder);
  } catch (const std::exception& e) {
    OpResult r;
    r.error = std::string("threw: ") + e.what();
    return r;
  }
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "table1_matrix", "wire_fine_control", "ensemble_dense",
      "ensemble_chaos"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, bool smoke) {
  if (name == "table1_matrix") return table1_matrix(smoke);
  if (name == "wire_fine_control") return wire_fine_control(smoke);
  if (name == "ensemble_dense") return ensemble_dense(smoke);
  if (name == "ensemble_chaos") return ensemble_chaos(smoke);
  return nullptr;
}

}  // namespace wire::suite
