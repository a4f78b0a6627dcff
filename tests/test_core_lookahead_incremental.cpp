// Differential chaos suite and property tests for the incremental lookahead
// (core/lookahead_cache.*).
//
// The hard contract: IncrementalLookahead::tick(delta) equals the
// from-scratch simulate_interval — full `upcoming` vector, `restart_cost`
// map, `projected_completions` — at EVERY control tick, compared with exact
// (bitwise) double equality, under every fault-model scenario the chaos
// suite knows (crashes with revocation notice, straggler boots, provision
// failures, transient task faults, dropout-coalesced deltas). A single ulp
// of drift in the memoized path shows up here before it can flip a steering
// decision.
//
// Alongside, seeded property sweeps pin the lookahead's output invariants
// over random DAGs × predictors. Two of the stated invariants deserve their
// honest, implementation-true form:
//   - "restart_cost[i] <= horizon - now" holds only for instances whose
//     projected tasks were all dispatched inside the lookahead
//     (attempt_start >= now). An observed-running task's sunk cost counts
//     from its real occupancy_start, which can precede now by many lags, so
//     the global bound is horizon - min(observed occupancy_start, now).
//   - Q_task ordering: the on-slot entries form a strict prefix — first the
//     still-busy tasks with strictly positive remaining occupancy in
//     non-decreasing order, then the speculative completions pinned at zero
//     (they never release their slots) — followed by the projected ready
//     queue in dispatch order, preserving the relative order of the
//     surviving snapshot ready-queue members.
//
// Every randomized test announces its seed via SCOPED_TRACE, and
// WIRE_FUZZ_SEED adds one environment-chosen chaos seed (DESIGN.md §4.10).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/controller.h"
#include "core/lookahead.h"
#include "core/lookahead_cache.h"
#include "core/run_state.h"
#include "core/steering.h"
#include "predict/oracle.h"
#include "predict/task_predictor.h"
#include "sim/driver.h"
#include "sim/engine.h"
#include "workload/generators.h"

namespace wire::core {
namespace {

using dag::TaskId;
using sim::CloudConfig;
using sim::MonitorSnapshot;
using sim::TaskPhase;

void expect_lookahead_eq(const LookaheadResult& got,
                         const LookaheadResult& want) {
  ASSERT_EQ(got.upcoming.size(), want.upcoming.size());
  for (std::size_t i = 0; i < got.upcoming.size(); ++i) {
    SCOPED_TRACE("upcoming entry " + std::to_string(i));
    EXPECT_EQ(got.upcoming[i].task, want.upcoming[i].task);
    // Bitwise double equality: EXPECT_EQ, not EXPECT_DOUBLE_EQ — ulp drift
    // is exactly the bug class this suite exists to catch.
    EXPECT_EQ(got.upcoming[i].remaining_occupancy,
              want.upcoming[i].remaining_occupancy);
    EXPECT_EQ(got.upcoming[i].on_slot, want.upcoming[i].on_slot);
  }
  EXPECT_EQ(got.projected_completions, want.projected_completions);
  EXPECT_EQ(got.truncated_tasks, want.truncated_tasks);
  ASSERT_EQ(got.restart_cost.size(), want.restart_cost.size());
  for (const auto& [inst, cost] : want.restart_cost) {
    const auto it = got.restart_cost.find(inst);
    ASSERT_NE(it, got.restart_cost.end()) << "missing instance " << inst;
    EXPECT_EQ(it->second, cost) << "restart cost drift on instance " << inst;
  }
}

void expect_lookahead_invariants(const MonitorSnapshot& snap,
                                 const LookaheadResult& result,
                                 const CloudConfig& config) {
  const double horizon = snap.now + config.lag_seconds;

  // No task appears twice in Q_task.
  std::set<TaskId> seen;
  for (const UpcomingTask& u : result.upcoming) {
    EXPECT_TRUE(seen.insert(u.task).second)
        << "task " << u.task << " appears twice in upcoming";
  }

  // Ordering: on-slot prefix (positives non-decreasing, then zeros), then
  // the queued suffix.
  std::size_t first_queued = result.upcoming.size();
  for (std::size_t i = 0; i < result.upcoming.size(); ++i) {
    if (!result.upcoming[i].on_slot) {
      first_queued = i;
      break;
    }
  }
  double prev_positive = 0.0;
  bool in_zero_tail = false;
  for (std::size_t i = 0; i < result.upcoming.size(); ++i) {
    const UpcomingTask& u = result.upcoming[i];
    if (i >= first_queued) {
      EXPECT_FALSE(u.on_slot) << "on-slot entry after the queued suffix began";
      continue;
    }
    if (u.remaining_occupancy > 0.0) {
      EXPECT_FALSE(in_zero_tail)
          << "still-busy entry after a speculative completion";
      EXPECT_GE(u.remaining_occupancy, prev_positive)
          << "still-busy prefix not ordered by projected completion";
      prev_positive = u.remaining_occupancy;
    } else {
      in_zero_tail = true;  // speculative completions: pinned at zero
    }
  }

  // Speculative completions never release slots: every task observed Running
  // on a stable (non-draining, non-revoking, ready) instance stays on a slot
  // at the horizon.
  for (const sim::InstanceObservation& inst : snap.instances) {
    if (inst.draining || inst.revoking || inst.provisioning) continue;
    for (TaskId task : inst.running_tasks) {
      bool found_on_slot = false;
      for (const UpcomingTask& u : result.upcoming) {
        if (u.task == task) {
          found_on_slot = u.on_slot;
          break;
        }
      }
      EXPECT_TRUE(found_on_slot)
          << "running task " << task << " lost its slot in the projection";
    }
  }

  // Queued suffix preserves the relative order of the surviving snapshot
  // ready-queue members (FIFO dispatch consumes only the front).
  std::map<TaskId, std::size_t> queue_rank;
  for (std::size_t i = 0; i < snap.ready_queue.size(); ++i) {
    queue_rank.emplace(snap.ready_queue[i], i);
  }
  std::size_t last_rank = 0;
  bool have_rank = false;
  for (std::size_t i = first_queued; i < result.upcoming.size(); ++i) {
    const auto it = queue_rank.find(result.upcoming[i].task);
    if (it == queue_rank.end()) continue;  // fired or requeued in-lookahead
    if (have_rank) {
      EXPECT_GT(it->second, last_rank)
          << "ready-queue order not preserved at task "
          << result.upcoming[i].task;
    }
    last_rank = it->second;
    have_rank = true;
  }

  // Restart costs: positive, and bounded by the sunk horizon. For instances
  // hosting only lookahead-dispatched tasks the bound is the lag itself;
  // observed-running tasks push it back to their real occupancy_start.
  double min_start = snap.now;
  std::map<sim::InstanceId, bool> has_observed_running;
  for (const sim::InstanceObservation& inst : snap.instances) {
    bool any = false;
    for (TaskId task : inst.running_tasks) {
      if (snap.tasks[task].phase != TaskPhase::Running) continue;
      any = true;
      min_start = std::min(min_start, snap.tasks[task].occupancy_start);
    }
    has_observed_running[inst.id] = any;
  }
  for (const auto& [inst, cost] : result.restart_cost) {
    EXPECT_GT(cost, 0.0);
    EXPECT_LE(cost, horizon - min_start);
    const auto it = has_observed_running.find(inst);
    if (it == has_observed_running.end() || !it->second) {
      // Only speculative work: attempt_start >= now, so cost <= lag.
      EXPECT_LE(cost, horizon - snap.now)
          << "speculative-only instance " << inst << " overcharged";
    }
  }
}

void expect_pool_command_eq(const sim::PoolCommand& got,
                            const sim::PoolCommand& want) {
  EXPECT_EQ(got.desired_pool, want.desired_pool);
  EXPECT_EQ(got.grow, want.grow);
  EXPECT_EQ(got.cancel_drains, want.cancel_drains);
  ASSERT_EQ(got.releases.size(), want.releases.size());
  for (std::size_t i = 0; i < got.releases.size(); ++i) {
    EXPECT_EQ(got.releases[i].instance, want.releases[i].instance);
    EXPECT_EQ(got.releases[i].at_charge_boundary,
              want.releases[i].at_charge_boundary);
  }
}

/// Plan-stamp consistency: a stamped result must be self-describing — the
/// stamps alone reproduce the clamped Algorithm-3 inputs, the packed pool
/// size, and the restart-cost map, all bitwise.
void expect_plan_stamps_consistent(const MonitorSnapshot& snap,
                                   const LookaheadResult& result,
                                   const CloudConfig& config) {
  ASSERT_EQ(result.stamps.size(), result.upcoming.size());
  const double horizon = snap.now + config.lag_seconds;
  std::vector<double> packed;
  packed.reserve(result.stamps.size());
  std::map<sim::InstanceId, double> rebuilt_cost;
  for (std::size_t i = 0; i < result.stamps.size(); ++i) {
    SCOPED_TRACE("stamp " + std::to_string(i));
    const UpcomingTask& u = result.upcoming[i];
    const WavefrontStamp& s = result.stamps[i];
    // The stamp carries the steering clamp already applied (bitwise).
    const double want_packed =
        u.on_slot
            ? std::max(u.remaining_occupancy, config.charging_unit_seconds)
            : u.remaining_occupancy;
    EXPECT_EQ(s.packed_occupancy, want_packed);
    packed.push_back(s.packed_occupancy);
    if (!u.on_slot) {
      EXPECT_EQ(s.instance, sim::kInvalidInstance);
      EXPECT_EQ(s.deadline, -1.0);
      EXPECT_EQ(s.start, -1.0);
      continue;
    }
    EXPECT_NE(s.instance, sim::kInvalidInstance);
    if (s.deadline > horizon) {
      // Still busy at the interval start: charged restart cost from its
      // attempt start.
      auto [it, inserted] = rebuilt_cost.emplace(s.instance, 0.0);
      it->second = std::max(it->second, horizon - s.start);
    } else {
      // Speculative completion: projected to finish inside the interval,
      // pinned at zero remaining occupancy, never restart-charged.
      EXPECT_EQ(u.remaining_occupancy, 0.0);
    }
  }
  // The stamped pool size is exactly what Algorithm 3 computes from the
  // stamped occupancies.
  EXPECT_EQ(resize_pool(packed, config.charging_unit_seconds,
                        config.slots_per_instance,
                        config.restart_cost_fraction),
            result.planned_pool);
  // The restart-cost map is exactly reconstructible from the stamps.
  ASSERT_EQ(rebuilt_cost.size(), result.restart_cost.size());
  for (const auto& [inst, cost] : rebuilt_cost) {
    const auto it = result.restart_cost.find(inst);
    ASSERT_NE(it, result.restart_cost.end()) << "missing instance " << inst;
    EXPECT_EQ(it->second, cost);
  }
}

/// The WIRE MAPE loop with both Analyze paths run side by side: at every
/// control tick the incremental cache's result is compared (bitwise) against
/// the from-scratch reference, the output invariants are checked, the
/// steering command computed from the (possibly Plan-stamped) cache result
/// is compared against the command from the unstamped reference, and —
/// optionally — a second cache with the adaptive horizon cap verifies that
/// truncation never changes the steering command.
class DifferentialWirePolicy final : public sim::ScalingPolicy {
 public:
  explicit DifferentialWirePolicy(bool use_oracle = false,
                                  predict::PredictorConfig predictor_config = {},
                                  bool check_adaptive = true)
      : use_oracle_(use_oracle),
        predictor_config_(predictor_config),
        check_adaptive_(check_adaptive) {}

  std::string name() const override { return "wire-differential"; }

  void on_run_start(const dag::Workflow& workflow,
                    const CloudConfig& config) override {
    workflow_ = &workflow;
    config_ = config;
    if (use_oracle_) {
      estimator_ = std::make_unique<predict::OracleEstimator>(
          workflow, config.variability.transfer_latency_seconds,
          config.variability.bandwidth_mb_per_s);
      online_ = nullptr;
    } else {
      auto online = std::make_unique<predict::TaskPredictor>(
          workflow, predictor_config_);
      online_ = online.get();
      estimator_ = std::move(online);
    }
    run_state_.reset();
    cache_ = IncrementalLookahead(LookaheadCacheOptions{});
    cache_.reset(workflow);
    LookaheadCacheOptions capped;
    capped.adaptive_horizon = true;
    capped_cache_ = IncrementalLookahead(capped);
    capped_cache_.reset(workflow);
  }

  sim::PoolCommand plan(const MonitorSnapshot& snapshot) override {
    estimator_->observe(snapshot);
    run_state_.update(*workflow_, snapshot);

    const LookaheadResult reference = simulate_interval(
        *workflow_, snapshot, *estimator_, config_, &run_state_);
    const LookaheadResult& incremental = cache_.tick(
        *workflow_, snapshot, *estimator_, online_, config_, &run_state_);
    {
      SCOPED_TRACE("tick at t=" + std::to_string(snapshot.now) + " (path " +
                   std::string(analyze_path_label(cache_.last_path())) + ")");
      expect_lookahead_eq(incremental, reference);
      expect_lookahead_invariants(snapshot, incremental, config_);
    }

    std::uint32_t planned = 0;
    sim::PoolCommand cmd =
        steer(incremental, snapshot, config_, &planned, false);

    // Plan differential: the command steered from the cache's result (which
    // carries an inline Plan stamp on quiet ticks) must equal the command
    // rebuilt from scratch off the unstamped reference — bitwise, at every
    // tick, under chaos.
    {
      SCOPED_TRACE("plan differential at t=" + std::to_string(snapshot.now) +
                   (incremental.plan_valid ? " (stamped)" : " (unstamped)"));
      EXPECT_FALSE(reference.plan_valid)
          << "simulate_interval must never stamp";
      std::uint32_t ref_planned = 0;
      const sim::PoolCommand ref_cmd =
          steer(reference, snapshot, config_, &ref_planned, false);
      EXPECT_EQ(planned, ref_planned);
      expect_pool_command_eq(cmd, ref_cmd);
      if (incremental.plan_valid) {
        ++stamped_ticks_;
        expect_plan_stamps_consistent(snapshot, incremental, config_);
      } else {
        EXPECT_TRUE(incremental.stamps.empty());
      }
    }

    if (check_adaptive_) {
      const LookaheadResult& capped = capped_cache_.tick(
          *workflow_, snapshot, *estimator_, online_, config_, &run_state_);
      std::uint32_t capped_planned = 0;
      const sim::PoolCommand capped_cmd =
          steer(capped, snapshot, config_, &capped_planned, false);
      SCOPED_TRACE("adaptive horizon at t=" + std::to_string(snapshot.now));
      EXPECT_EQ(capped_cmd.grow, cmd.grow);
      EXPECT_EQ(capped_cmd.cancel_drains, cmd.cancel_drains);
      EXPECT_EQ(capped_cmd.releases.size(), cmd.releases.size());
      for (std::size_t i = 0;
           i < std::min(cmd.releases.size(), capped_cmd.releases.size());
           ++i) {
        EXPECT_EQ(capped_cmd.releases[i].instance, cmd.releases[i].instance);
        EXPECT_EQ(capped_cmd.releases[i].at_charge_boundary,
                  cmd.releases[i].at_charge_boundary);
      }
      if (capped.truncated_tasks == 0) {
        // Cap idle: the projection itself must be untouched.
        expect_lookahead_eq(capped, reference);
      }
    }
    return cmd;
  }

  const LookaheadCacheStats& cache_stats() const { return cache_.stats(); }
  const LookaheadCacheStats& capped_stats() const {
    return capped_cache_.stats();
  }
  std::uint64_t stamped_ticks() const { return stamped_ticks_; }

 private:
  bool use_oracle_;
  predict::PredictorConfig predictor_config_;
  bool check_adaptive_;
  const dag::Workflow* workflow_ = nullptr;
  CloudConfig config_;
  std::unique_ptr<predict::Estimator> estimator_;
  predict::TaskPredictor* online_ = nullptr;
  RunState run_state_;
  IncrementalLookahead cache_;
  IncrementalLookahead capped_cache_;
  std::uint64_t stamped_ticks_ = 0;
};

/// The chaos suite's fault scenarios (mirrors test_sim_faults.cpp).
enum class Scenario {
  kHostileMix,
  kDropoutAlways,
  kRevocationHeavy,
  kFlakyBoots,
  kReliable,
};

const char* scenario_name(Scenario s) {
  switch (s) {
    case Scenario::kHostileMix:
      return "hostile-mix";
    case Scenario::kDropoutAlways:
      return "dropout-always";
    case Scenario::kRevocationHeavy:
      return "revocation-heavy";
    case Scenario::kFlakyBoots:
      return "flaky-boots";
    case Scenario::kReliable:
      return "reliable";
  }
  return "unknown";
}

CloudConfig scenario_config(Scenario s) {
  CloudConfig config;
  config.lag_seconds = 30.0;
  config.charging_unit_seconds = 120.0;
  config.slots_per_instance = 2;
  config.max_instances = 6;
  config.retry.max_attempts = 3;
  config.retry.backoff_base_seconds = 5.0;
  config.retry.backoff_factor = 2.0;
  switch (s) {
    case Scenario::kHostileMix:
      config.faults.crash_rate_per_hour = 20.0;
      config.faults.crash_notice_seconds = 20.0;
      config.faults.provision_failure_prob = 0.2;
      config.faults.straggler_prob = 0.3;
      config.faults.straggler_lag_multiplier = 2.5;
      config.faults.task_failure_prob = 0.15;
      config.faults.monitor_dropout_prob = 0.2;
      break;
    case Scenario::kDropoutAlways:
      config.faults.monitor_dropout_prob = 1.0;
      break;
    case Scenario::kRevocationHeavy:
      config.faults.crash_rate_per_hour = 40.0;
      config.faults.crash_notice_seconds = 30.0;
      break;
    case Scenario::kFlakyBoots:
      config.faults.provision_failure_prob = 0.4;
      config.faults.straggler_prob = 0.5;
      config.faults.straggler_lag_multiplier = 3.0;
      break;
    case Scenario::kReliable:
      break;
  }
  return config;
}

void run_differential(Scenario scenario, std::uint64_t seed,
                      DifferentialWirePolicy& policy) {
  const dag::Workflow wf =
      workload::random_layered(workload::RandomDagOptions{}, seed);
  sim::RunOptions options;
  options.seed = seed + 101;
  options.initial_instances = 1;
  options.max_sim_seconds = 3.0e6;

  sim::JobEngine engine(wf, policy, scenario_config(scenario), options);
  engine.start();
  std::uint64_t steps = 0;
  while (!engine.done()) {
    ASSERT_LT(steps, 400000u) << "differential run failed to converge";
    engine.step();
    ++steps;
  }
}

class LookaheadDifferential : public ::testing::TestWithParam<int> {};

TEST_P(LookaheadDifferential, CacheMatchesReferenceAtEveryTickUnderChaos) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  for (Scenario scenario :
       {Scenario::kHostileMix, Scenario::kDropoutAlways,
        Scenario::kRevocationHeavy, Scenario::kFlakyBoots,
        Scenario::kReliable}) {
    SCOPED_TRACE(std::string("scenario ") + scenario_name(scenario) +
                 " seed " + std::to_string(seed));
    DifferentialWirePolicy policy;
    run_differential(scenario, seed, policy);
    const LookaheadCacheStats& stats = policy.cache_stats();
    EXPECT_GT(stats.ticks, 0u);
    // (The random chaos DAGs are too short-lived to guarantee a quiet tick;
    // SteadyStateExercisesTheIncrementalPath below pins the fast path on a
    // long steady-state run.)
    if (scenario == Scenario::kDropoutAlways) {
      EXPECT_EQ(
          stats.by_path[static_cast<std::size_t>(AnalyzePath::kIncremental)],
          0u)
          << "non-exact deltas must never classify as incremental";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LookaheadDifferential, ::testing::Range(0, 3));

TEST(LookaheadDifferential, SteadyStateExercisesTheIncrementalPath) {
  // A quiet cloud must actually exercise the memoized fast path — the
  // per-tick equality assertions would be vacuous if every tick fell back.
  // Long identical stages on a saturated pool give many consecutive ticks
  // with no completions, no pool lifecycle changes, and no refits.
  const dag::Workflow wf = workload::linear_workflow(4, 40, 300.0);
  DifferentialWirePolicy policy;
  sim::RunOptions options;
  options.seed = 3;
  options.initial_instances = 1;
  sim::JobEngine engine(wf, policy, scenario_config(Scenario::kReliable),
                        options);
  engine.start();
  std::uint64_t steps = 0;
  while (!engine.done()) {
    ASSERT_LT(steps, 400000u) << "steady-state run failed to converge";
    engine.step();
    ++steps;
  }
  const LookaheadCacheStats& stats = policy.cache_stats();
  EXPECT_GT(stats.by_path[static_cast<std::size_t>(AnalyzePath::kIncremental)],
            0u)
      << "steady-state run never hit the incremental path";
  EXPECT_GT(stats.memo_hits, 0u);
  EXPECT_GT(stats.matched_completions, 0u);
  // The Plan stamp rides every incremental tick — the stamped-steering
  // assertions above would be vacuous if no tick ever stamped.
  EXPECT_EQ(stats.stamped_plan_ticks,
            stats.by_path[static_cast<std::size_t>(AnalyzePath::kIncremental)]);
  EXPECT_GT(policy.stamped_ticks(), 0u)
      << "steady-state run never exercised stamped steering";
}

TEST(LookaheadDifferential, EnvironmentSeedRuns) {
  const char* env = std::getenv("WIRE_FUZZ_SEED");
  if (env == nullptr) GTEST_SKIP() << "WIRE_FUZZ_SEED not set";
  const std::uint64_t seed = std::strtoull(env, nullptr, 10);
  SCOPED_TRACE("WIRE_FUZZ_SEED=" + std::to_string(seed));
  std::printf("running lookahead differential with WIRE_FUZZ_SEED=%llu\n",
              static_cast<unsigned long long>(seed));
  DifferentialWirePolicy policy;
  run_differential(Scenario::kHostileMix, seed, policy);
}

TEST(LookaheadProperties, InvariantsHoldAcrossPredictorsAndDags) {
  // Seeded sweep over random DAGs × predictor variants. The per-tick
  // invariant checks live inside DifferentialWirePolicy::plan, so driving a
  // run to completion sweeps them over every reachable wavefront shape.
  struct Variant {
    const char* label;
    bool oracle;
    predict::PredictorConfig config;
  };
  std::vector<Variant> variants;
  variants.push_back({"online-median", false, {}});
  {
    predict::PredictorConfig mean;
    mean.use_mean = true;
    variants.push_back({"online-mean", false, mean});
  }
  {
    predict::PredictorConfig no_ogd;
    no_ogd.disable_ogd = true;
    variants.push_back({"online-no-ogd", false, no_ogd});
  }
  variants.push_back({"oracle", true, {}});

  for (const Variant& v : variants) {
    for (std::uint64_t seed : {11u, 12u}) {
      for (Scenario scenario :
           {Scenario::kReliable, Scenario::kRevocationHeavy}) {
        SCOPED_TRACE(std::string("predictor ") + v.label + " seed " +
                     std::to_string(seed) + " scenario " +
                     scenario_name(scenario));
        DifferentialWirePolicy policy(v.oracle, v.config);
        run_differential(scenario, seed, policy);
      }
    }
  }
}

TEST(LookaheadProperties, ReplayedSnapshotIsIdempotent) {
  // Benches replay the same snapshot into plan(); the cache must return the
  // identical projection every time (its classification may differ — a
  // replayed completion set looks like a misprediction — but outputs must
  // not).
  const dag::Workflow wf = workload::linear_workflow(2, 4, 60.0);
  predict::TaskPredictor predictor(wf);
  RunState run_state;
  CloudConfig config = scenario_config(Scenario::kReliable);

  MonitorSnapshot snap;
  snap.now = 300.0;
  snap.tasks.assign(wf.task_count(), sim::TaskObservation{});
  for (const dag::TaskSpec& t : wf.tasks()) {
    snap.tasks[t.id].input_mb = t.input_mb;
  }
  snap.incomplete_tasks = static_cast<std::uint32_t>(wf.task_count());
  snap.tasks[0].phase = TaskPhase::Completed;
  snap.tasks[0].exec_time = 60.0;
  snap.tasks[0].transfer_time = 1.0;
  --snap.incomplete_tasks;
  snap.tasks[1].phase = TaskPhase::Running;
  snap.tasks[1].ready_since = 250.0;
  snap.tasks[1].occupancy_start = 250.0;
  snap.tasks[1].elapsed = 50.0;
  snap.tasks[1].elapsed_exec = 49.0;
  snap.tasks[1].transfer_in_time = 1.0;
  snap.tasks[1].instance = 0;
  snap.tasks[2].phase = TaskPhase::Ready;
  snap.tasks[2].ready_since = 260.0;
  snap.tasks[3].phase = TaskPhase::Ready;
  snap.tasks[3].ready_since = 260.0;
  snap.ready_queue = {2, 3};
  sim::InstanceObservation inst;
  inst.id = 0;
  inst.time_to_next_charge = 80.0;
  inst.running_tasks = {1};
  inst.free_slots = 1;
  snap.instances.push_back(inst);

  predictor.observe(snap);
  run_state.update(wf, snap);

  IncrementalLookahead cache;
  cache.reset(wf);
  const LookaheadResult reference =
      simulate_interval(wf, snap, predictor, config, &run_state);
  const LookaheadResult first =
      cache.tick(wf, snap, predictor, &predictor, config, &run_state);
  expect_lookahead_eq(first, reference);
  const LookaheadResult& second =
      cache.tick(wf, snap, predictor, &predictor, config, &run_state);
  expect_lookahead_eq(second, reference);
  // Borrowed predecessor counters must be restored exactly.
  const LookaheadResult again =
      simulate_interval(wf, snap, predictor, config, &run_state);
  expect_lookahead_eq(again, reference);
}

TEST(LookaheadDedupe, RequeuedDrainingTaskAlreadyInReadyQueueProjectsOnce) {
  // The crash/refresh race: a task requeued off a draining instance is
  // already back in snapshot.ready_queue (phase Ready) while the instance's
  // stale row still lists it under running_tasks. Before the dedupe fix the
  // drain-requeue loop pushed it a second time — double dispatch, phantom
  // load, and a predecessor-underflow trip once both copies completed.
  // Execution times dwarf the lag so the dispatched task is still on its
  // slot at the horizon (a double dispatch would surface as two entries; a
  // task that completes inside the horizon legitimately leaves Q_task).
  const dag::Workflow wf = workload::linear_workflow(2, 2, 300.0);
  predict::TaskPredictor predictor(wf);
  MonitorSnapshot snap;
  snap.now = 100.0;
  snap.tasks.assign(wf.task_count(), sim::TaskObservation{});
  for (const dag::TaskSpec& t : wf.tasks()) {
    snap.tasks[t.id].input_mb = t.input_mb;
  }
  snap.incomplete_tasks = static_cast<std::uint32_t>(wf.task_count());
  snap.tasks[0].phase = TaskPhase::Completed;
  snap.tasks[0].exec_time = 300.0;
  snap.tasks[0].transfer_time = 0.5;
  --snap.incomplete_tasks;
  // Task 1: requeued (Ready, in the queue) but still listed on the draining
  // instance's stale row.
  snap.tasks[1].phase = TaskPhase::Ready;
  snap.tasks[1].ready_since = 95.0;
  snap.ready_queue = {1};
  sim::InstanceObservation draining;
  draining.id = 0;
  draining.draining = true;
  draining.time_to_next_charge = 10.0;
  draining.running_tasks = {1};  // stale
  snap.instances.push_back(draining);
  sim::InstanceObservation stable;
  stable.id = 1;
  stable.time_to_next_charge = 100.0;
  stable.free_slots = 2;
  snap.instances.push_back(stable);
  predictor.observe(snap);

  const sim::CloudConfig config = scenario_config(Scenario::kReliable);
  const LookaheadResult result =
      simulate_interval(wf, snap, predictor, config);
  std::size_t task1_count = 0;
  for (const UpcomingTask& u : result.upcoming) {
    if (u.task == 1) ++task1_count;
  }
  EXPECT_EQ(task1_count, 1u) << "requeued task projected twice";
  expect_lookahead_invariants(snap, result, config);
  // A genuinely stranded task (still observed Running on the draining
  // instance) is still requeued and projected.
  snap.ready_queue.clear();
  snap.tasks[1].phase = TaskPhase::Running;
  snap.tasks[1].occupancy_start = 95.0;
  snap.tasks[1].elapsed = 5.0;
  snap.tasks[1].instance = 0;
  const LookaheadResult stranded =
      simulate_interval(wf, snap, predictor, config);
  task1_count = 0;
  for (const UpcomingTask& u : stranded.upcoming) {
    if (u.task == 1) ++task1_count;
  }
  EXPECT_EQ(task1_count, 1u);
}

TEST(LookaheadDifferential, StrandedDrainTasksMatchReferenceOnBothPaths) {
  // Tasks stranded on a draining instance are re-projected at their full
  // fresh occupancy — the projection's second estimate callback. The chaos
  // runs rarely reach it, so pin it here on a stage with no completions
  // (policy 2, served through the tick's PredictionScope): once on a
  // fallback tick (first tick) and once on the memoized incremental tick,
  // both bit-equal to the unscoped from-scratch reference.
  const dag::Workflow wf = workload::linear_workflow(2, 4, 300.0);
  predict::TaskPredictor predictor(wf);
  MonitorSnapshot snap;
  snap.now = 100.0;
  snap.tasks.assign(wf.task_count(), sim::TaskObservation{});
  for (const dag::TaskSpec& t : wf.tasks()) {
    snap.tasks[t.id].input_mb = t.input_mb;
  }
  snap.incomplete_tasks = static_cast<std::uint32_t>(wf.task_count());
  // Stage 0: tasks 0-1 stranded on the draining instance, task 2 running on
  // the stable one, task 3 queued. Distinct fire times keep policy 2 honest.
  for (TaskId t = 0; t < 3; ++t) {
    snap.tasks[t].phase = TaskPhase::Running;
    snap.tasks[t].ready_since = 60.0 + 10.0 * static_cast<double>(t);
    snap.tasks[t].occupancy_start = snap.tasks[t].ready_since;
    snap.tasks[t].elapsed = snap.now - snap.tasks[t].ready_since;
    snap.tasks[t].elapsed_exec = snap.tasks[t].elapsed;
    snap.tasks[t].transfer_in_time = 0.0;
    snap.tasks[t].instance = t < 2 ? 0 : 1;
  }
  snap.tasks[3].phase = TaskPhase::Ready;
  snap.tasks[3].ready_since = 60.0;
  snap.ready_queue = {3};
  sim::InstanceObservation draining;
  draining.id = 0;
  draining.draining = true;
  draining.time_to_next_charge = 10.0;
  draining.running_tasks = {0, 1};
  snap.instances.push_back(draining);
  sim::InstanceObservation stable;
  stable.id = 1;
  stable.time_to_next_charge = 100.0;
  stable.running_tasks = {2};
  stable.free_slots = 1;
  snap.instances.push_back(stable);
  predictor.observe(snap);

  const CloudConfig config = scenario_config(Scenario::kReliable);
  const LookaheadResult reference =
      simulate_interval(wf, snap, predictor, config);
  IncrementalLookahead cache;
  cache.reset(wf);
  expect_lookahead_eq(cache.tick(wf, snap, predictor, &predictor, config,
                                 nullptr),
                      reference);
  EXPECT_EQ(cache.last_path(), AnalyzePath::kFirstTick);
  // An exact, empty journal: nothing moved, so the next tick is quiet.
  snap.delta.exact = true;
  expect_lookahead_eq(cache.tick(wf, snap, predictor, &predictor, config,
                                 nullptr),
                      reference);
  EXPECT_EQ(cache.last_path(), AnalyzePath::kIncremental);
}

TEST(LookaheadAdaptiveHorizon, CapEngagesAndPreservesTheRunByteForByte) {
  // A wide stage overloading a small site: hundreds of queued tasks against
  // a 3-instance ceiling. With the cap on, the queue tail is truncated once
  // Algorithm 3's pool size saturates the ceiling — and the whole run must
  // still reproduce byte-for-byte, because the clamped steering decision
  // never changes (the unclamped demand signal saturates, which single-
  // tenant runs do not consume).
  const dag::Workflow wf = workload::linear_workflow(2, 200, 300.0);
  CloudConfig config;
  config.lag_seconds = 60.0;
  config.charging_unit_seconds = 300.0;
  config.slots_per_instance = 2;
  config.max_instances = 3;
  sim::RunOptions options;
  options.seed = 7;
  options.initial_instances = 1;

  WireController plain;
  const sim::RunResult base = sim::simulate(wf, plain, config, options);

  WireOptions capped_options;
  capped_options.lookahead_cache.adaptive_horizon = true;
  WireController capped(capped_options);
  const sim::RunResult capped_result =
      sim::simulate(wf, capped, config, options);

  EXPECT_GT(capped.lookahead_stats().capped_ticks, 0u)
      << "overload scenario never engaged the cap";
  EXPECT_GT(capped.lookahead_stats().truncated_tasks, 0u);
  EXPECT_EQ(capped_result.makespan, base.makespan);
  EXPECT_EQ(capped_result.cost_units, base.cost_units);
  EXPECT_EQ(capped_result.control_ticks, base.control_ticks);
  EXPECT_EQ(capped_result.task_restarts, base.task_restarts);
}

TEST(LookaheadCacheStatsTest, DisabledCacheClassifiesEveryTickDisabled) {
  const dag::Workflow wf = workload::linear_workflow(2, 6, 30.0);
  WireOptions options;
  options.lookahead_cache.enabled = false;
  WireController controller(options);
  CloudConfig config = scenario_config(Scenario::kReliable);
  sim::RunOptions run_options;
  run_options.seed = 5;
  run_options.initial_instances = 1;
  const sim::RunResult r = sim::simulate(wf, controller, config, run_options);
  EXPECT_GT(r.control_ticks, 0u);
  const LookaheadCacheStats& stats = controller.lookahead_stats();
  EXPECT_EQ(stats.ticks, static_cast<std::uint64_t>(r.control_ticks));
  EXPECT_EQ(stats.by_path[static_cast<std::size_t>(AnalyzePath::kDisabled)],
            stats.ticks);
  EXPECT_EQ(stats.memo_hits + stats.memo_misses, 0u);
}

}  // namespace
}  // namespace wire::core
