// PredictionScope differential: scoped and unscoped TaskPredictor calls must
// agree bit-for-bit. Random hand-built snapshots over a random multi-stage
// workflow drive every one of the five §III-C policies; each round queries
// every task in a shuffled order through one scope and compares value and
// Policy against the plain call, under both centre statistics. Running peers
// carry unsorted ready_since values, so under use_mean the summation order
// of the stage-wide estimate matters. A contract case checks the scope's
// validity rule (predictor revision, snapshot identity).
// The seeds are printed; WIRE_FUZZ_SEED adds one chosen by the environment.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "dag/workflow.h"
#include "predict/task_predictor.h"
#include "sim/monitor.h"
#include "util/check.h"
#include "util/rng.h"

namespace wire::predict {
namespace {

using dag::TaskId;
using sim::TaskPhase;

/// Random stages of 1-40 independent tasks; input sizes come from a small
/// per-stage palette (policy-4 group hits) with a share of one-off sizes
/// (policy-5 OGD queries) and a few zero-size tasks (the sentinel bucket).
dag::Workflow make_workflow(util::Rng& rng) {
  dag::WorkflowBuilder builder("scope");
  const auto stages = rng.uniform_int(2, 6);
  for (std::int64_t s = 0; s < stages; ++s) {
    const auto stage = builder.add_stage("s" + std::to_string(s));
    std::array<double, 3> palette{};
    for (double& size : palette) size = rng.uniform(1.0, 500.0);
    const auto tasks = rng.uniform_int(1, 40);
    for (std::int64_t i = 0; i < tasks; ++i) {
      const double roll = rng.uniform(0.0, 1.0);
      const double size =
          roll < 0.6   ? palette[rng.uniform_int(0, 2)]
          : roll < 0.95 ? rng.uniform(1.0, 500.0)
                        : 0.0;
      builder.add_task(stage, "t" + std::to_string(i), size, 1.0, 10.0, {});
    }
  }
  return builder.build();
}

/// Moves the snapshot forward one control interval: time advances,
/// completions stay completed, and every other task is re-drawn among
/// Pending / Ready / Running. A stage only starts completing tasks from its
/// own (random) round on, so early rounds keep whole stages on policies 1-2.
void advance(const dag::Workflow& wf, util::Rng& rng,
             const std::vector<int>& first_completion_round, int round,
             sim::MonitorSnapshot& snap) {
  snap.now += rng.uniform(5.0, 60.0);
  for (const dag::TaskSpec& spec : wf.tasks()) {
    sim::TaskObservation& obs = snap.tasks[spec.id];
    if (obs.phase == TaskPhase::Completed) continue;
    const bool may_complete = round >= first_completion_round[spec.stage];
    const double roll = rng.uniform(0.0, 1.0);
    obs = sim::TaskObservation{};
    obs.input_mb = spec.input_mb;
    if (may_complete && roll < 0.25) {
      obs.phase = TaskPhase::Completed;
      obs.exec_time = rng.uniform(1.0, 100.0);
      obs.transfer_time = rng.bernoulli(0.7) ? rng.uniform(0.1, 5.0) : 0.0;
    } else if (roll < 0.55) {
      obs.phase = TaskPhase::Running;
      // ready_since drawn independently per task: unsorted across the
      // stage, so the mean's fold order is exercised.
      obs.ready_since = rng.uniform(0.0, snap.now);
      obs.elapsed = rng.uniform(0.0, snap.now - obs.ready_since);
      obs.elapsed_exec = rng.uniform(0.0, obs.elapsed);
      obs.transfer_in_time = rng.bernoulli(0.8) ? 1.0 : -1.0;
      obs.occupancy_start = snap.now - obs.elapsed;
    } else if (roll < 0.8) {
      obs.phase = TaskPhase::Ready;
      obs.ready_since = rng.uniform(0.0, snap.now);
    }
  }
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Counts of each Policy (index = enum value) seen across one run.
using PolicyCounts = std::array<std::uint64_t, 6>;

void run_differential(std::uint64_t seed, bool use_mean,
                      PolicyCounts& seen) {
  std::printf("prediction-scope differential, seed %llu, use_mean %d\n",
              static_cast<unsigned long long>(seed), use_mean ? 1 : 0);
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " use_mean=" + std::to_string(use_mean));
  util::Rng rng(seed);
  const dag::Workflow wf = make_workflow(rng);
  PredictorConfig config;
  config.use_mean = use_mean;
  TaskPredictor predictor(wf, config);

  std::vector<int> first_completion_round(wf.stage_count());
  for (int& r : first_completion_round) {
    r = static_cast<int>(rng.uniform_int(0, 6));
  }
  sim::MonitorSnapshot snap;
  snap.tasks.resize(wf.task_count());
  std::vector<TaskId> order(wf.task_count());
  for (TaskId t = 0; t < order.size(); ++t) order[t] = t;

  for (int round = 0; round < 10; ++round) {
    advance(wf, rng, first_completion_round, round, snap);
    predictor.observe(snap);

    PredictionScope scope(predictor, snap);
    std::shuffle(order.begin(), order.end(), rng.engine());
    for (TaskId t : order) {
      const Prediction plain = predictor.predict_exec(t, snap);
      const Prediction scoped = predictor.predict_exec(t, snap, &scope);
      ASSERT_EQ(bits(scoped.exec_seconds), bits(plain.exec_seconds))
          << "task " << t << " round " << round;
      ASSERT_EQ(scoped.policy, plain.policy) << "task " << t;
      ASSERT_EQ(bits(predictor.predict_remaining_occupancy(t, snap, &scope)),
                bits(predictor.predict_remaining_occupancy(t, snap)))
          << "task " << t;
      if (snap.tasks[t].phase != TaskPhase::Completed) {
        ++seen[static_cast<std::size_t>(plain.policy)];
      }
    }
  }
}

TEST(PredictionScopeDifferential, MatchesUnscopedCalls) {
  for (bool use_mean : {false, true}) {
    PolicyCounts seen{};
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      run_differential(seed, use_mean, seen);
      if (HasFatalFailure()) return;
    }
    // The seeds drive every policy, so the comparison covered them all.
    for (int p = 1; p <= 5; ++p) {
      EXPECT_GT(seen[p], 0u) << "policy " << p << " never exercised";
    }
  }
}

TEST(PredictionScopeDifferential, EnvironmentSeedRuns) {
  const char* env = std::getenv("WIRE_FUZZ_SEED");
  if (env == nullptr) GTEST_SKIP() << "WIRE_FUZZ_SEED not set";
  const std::uint64_t seed = std::strtoull(env, nullptr, 10);
  for (bool use_mean : {false, true}) {
    PolicyCounts seen{};
    for (std::uint64_t k = 0; k < 20; ++k) {
      run_differential(seed + k, use_mean, seen);
      if (HasFatalFailure()) return;
    }
  }
}

/// Two-stage workflow for the contract cases: stage 0 gets a completion (so
/// a harvest moves the revision), stage 1 only running tasks (policy 2).
dag::Workflow make_contract_workflow() {
  dag::WorkflowBuilder builder("scope-contract");
  const auto s0 = builder.add_stage("done");
  const auto s1 = builder.add_stage("fresh");
  for (int i = 0; i < 3; ++i) {
    builder.add_task(s0, "a" + std::to_string(i), 10.0, 1.0, 5.0, {});
  }
  for (int i = 0; i < 3; ++i) {
    builder.add_task(s1, "b" + std::to_string(i), 10.0, 1.0, 5.0, {});
  }
  return builder.build();
}

struct ContractFixture {
  dag::Workflow wf = make_contract_workflow();
  sim::MonitorSnapshot snap;

  ContractFixture() {
    snap.now = 50.0;
    snap.tasks.resize(wf.task_count());
    snap.tasks[0].phase = TaskPhase::Completed;
    snap.tasks[0].exec_time = 7.0;
    snap.tasks[0].transfer_time = 1.0;
    for (TaskId t = 3; t < 5; ++t) {
      snap.tasks[t].phase = TaskPhase::Running;
      snap.tasks[t].ready_since = 10.0 * static_cast<double>(t);
    }
  }
};

TEST(PredictionScopeContract, StaleRevisionThrows) {
  ContractFixture f;
  TaskPredictor predictor(f.wf);
  predictor.observe(f.snap);
  PredictionScope scope(predictor, f.snap);
  EXPECT_EQ(predictor.predict_exec(5, f.snap, &scope).policy,
            Policy::RunningOnly);

  // A harvest with a new completion moves the revision.
  f.snap.tasks[1].phase = TaskPhase::Completed;
  f.snap.tasks[1].exec_time = 9.0;
  const std::uint64_t before = predictor.revision();
  predictor.observe(f.snap);
  ASSERT_NE(predictor.revision(), before);
  EXPECT_THROW(predictor.predict_exec(5, f.snap, &scope),
               util::ContractViolation);
  // Every use is checked, not just the stage-wide policies.
  EXPECT_THROW(predictor.predict_exec(2, f.snap, &scope),
               util::ContractViolation);
  EXPECT_THROW(predictor.predict_remaining_occupancy(5, f.snap, &scope),
               util::ContractViolation);

  // So does an arm switch.
  PredictionScope fresh(predictor, f.snap);
  EXPECT_NO_THROW(predictor.predict_exec(5, f.snap, &fresh));
  PredictorConfig mean;
  mean.use_mean = true;
  ASSERT_TRUE(predictor.reconfigure(mean));
  EXPECT_THROW(predictor.predict_exec(5, f.snap, &fresh),
               util::ContractViolation);
}

TEST(PredictionScopeContract, OtherSnapshotOrPredictorThrows) {
  ContractFixture f;
  TaskPredictor predictor(f.wf);
  predictor.observe(f.snap);
  PredictionScope scope(predictor, f.snap);

  // An equal copy is still another snapshot.
  const sim::MonitorSnapshot copy = f.snap;
  EXPECT_THROW(predictor.predict_exec(5, copy, &scope),
               util::ContractViolation);
  // The same object moved to another instant is too.
  f.snap.now += 10.0;
  EXPECT_THROW(predictor.predict_exec(5, f.snap, &scope),
               util::ContractViolation);
  f.snap.now -= 10.0;
  EXPECT_NO_THROW(predictor.predict_exec(5, f.snap, &scope));

  TaskPredictor other(f.wf);
  other.observe(f.snap);
  EXPECT_THROW(other.predict_exec(5, f.snap, &scope),
               util::ContractViolation);
}

}  // namespace
}  // namespace wire::predict
