// Differential and ownership tests for workload::WorkflowTemplate, the
// production make_workflow: the graph is built once per profile and each
// seed draws only the task numbers.
//   - Differential: for every Table-I profile, and for random profiles that
//     exercise the edge cases (zero sigmas, no memory profile, narrow
//     stages, every link kind), the template's instance equals the one-pass
//     builder reference in tests/oracle/ field for field, numbers compared
//     as hexfloat. WIRE_FUZZ_SEED adds seeds chosen by the environment.
//   - Ownership: an instance outlives its template; copies and separate
//     instances share the graph's storage; two seeds differ only in their
//     numbers; with_tasks() rejects numbers that do not fit the graph.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "oracle/workflow_oracle.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/generators.h"
#include "workload/profiles.h"

namespace wire::workload {
namespace {

using dag::TaskId;
using dag::Workflow;

constexpr std::uint64_t kSeeds[] = {0, 1, 7, (std::uint64_t{1} << 63) + 5};

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::vector<TaskId> ids(std::span<const TaskId> s) {
  return {s.begin(), s.end()};
}

/// Everything but the task numbers.
void expect_same_graph(const Workflow& a, const Workflow& b) {
  EXPECT_EQ(a.name(), b.name());
  ASSERT_EQ(a.stage_count(), b.stage_count());
  for (dag::StageId s = 0; s < a.stage_count(); ++s) {
    EXPECT_EQ(a.stage(s).id, b.stage(s).id);
    EXPECT_EQ(a.stage(s).name, b.stage(s).name);
    EXPECT_EQ(a.stage(s).executable, b.stage(s).executable);
    EXPECT_EQ(ids(a.stage_tasks(s)), ids(b.stage_tasks(s))) << "stage " << s;
  }
  ASSERT_EQ(a.task_count(), b.task_count());
  for (TaskId t = 0; t < a.task_count(); ++t) {
    EXPECT_EQ(a.task(t).id, b.task(t).id);
    EXPECT_EQ(a.task(t).stage, b.task(t).stage);
    EXPECT_EQ(a.task_name(t), b.task_name(t));
    EXPECT_EQ(ids(a.predecessors(t)), ids(b.predecessors(t))) << "task " << t;
    EXPECT_EQ(ids(a.successors(t)), ids(b.successors(t))) << "task " << t;
  }
  EXPECT_EQ(ids(a.roots()), ids(b.roots()));
  EXPECT_EQ(ids(a.sinks()), ids(b.sinks()));
  EXPECT_EQ(a.topological_order(), b.topological_order());
}

void expect_same_workflow(const Workflow& a, const Workflow& b) {
  expect_same_graph(a, b);
  if (::testing::Test::HasFatalFailure()) return;
  for (TaskId t = 0; t < a.task_count(); ++t) {
    const dag::TaskSpec& x = a.task(t);
    const dag::TaskSpec& y = b.task(t);
    EXPECT_EQ(hex(x.input_mb), hex(y.input_mb)) << "task " << t;
    EXPECT_EQ(hex(x.output_mb), hex(y.output_mb)) << "task " << t;
    EXPECT_EQ(hex(x.ref_exec_seconds), hex(y.ref_exec_seconds)) << "task " << t;
    EXPECT_EQ(hex(x.ref_peak_mem_mb), hex(y.ref_peak_mem_mb)) << "task " << t;
  }
  EXPECT_EQ(hex(a.aggregate_ref_exec_seconds()),
            hex(b.aggregate_ref_exec_seconds()));
  EXPECT_EQ(hex(a.input_dataset_mb()), hex(b.input_dataset_mb()));
}

void check_profile(const WorkflowProfile& profile, std::uint64_t seed) {
  SCOPED_TRACE(profile.name + " seed " + std::to_string(seed));
  const Workflow reference = oracle::make_workflow(profile, seed);
  expect_same_workflow(WorkflowTemplate(profile).instantiate(seed), reference);
  expect_same_workflow(make_workflow(profile, seed), reference);
}

/// A random profile: 1-6 stages of 1-40 tasks, every link kind, sigmas and
/// skew probabilities that include 0, memory declared on some stages only.
WorkflowProfile random_profile(std::uint64_t seed) {
  util::Rng rng(seed);
  WorkflowProfile p;
  p.name = "random_" + std::to_string(seed);
  p.exec_residual_sigma = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 0.5);
  p.mem_residual_sigma = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 0.5);
  p.skew_class_probability = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 1.0);
  const auto stages = static_cast<std::uint32_t>(rng.uniform_int(1, 6));
  for (std::uint32_t s = 0; s < stages; ++s) {
    StageProfile sp;
    sp.name = "s" + std::to_string(s);
    sp.task_count = static_cast<std::uint32_t>(rng.uniform_int(1, 40));
    sp.mean_exec_seconds = rng.uniform(0.0, 100.0);
    sp.stage_input_mb = rng.uniform(0.0, 5000.0);
    sp.mean_peak_mem_mb = rng.bernoulli(0.5) ? rng.uniform(0.0, 4096.0) : 0.0;
    sp.link = s == 0 ? StageLink::Source
                     : static_cast<StageLink>(rng.uniform_int(1, 3));
    p.stages.push_back(sp);
  }
  return p;
}

TEST(WorkflowTemplateDifferential, TableOneProfilesFixedSeeds) {
  for (const WorkflowProfile& profile : table1_profiles()) {
    for (std::uint64_t seed : kSeeds) check_profile(profile, seed);
  }
}

TEST(WorkflowTemplateDifferential, RandomProfilesFixedSeeds) {
  for (std::uint64_t k = 0; k < 64; ++k) {
    const WorkflowProfile profile = random_profile(k);
    for (std::uint64_t seed : kSeeds) check_profile(profile, seed);
  }
}

TEST(WorkflowTemplateDifferential, EnvironmentSeedRuns) {
  const char* env = std::getenv("WIRE_FUZZ_SEED");
  if (env == nullptr) GTEST_SKIP() << "WIRE_FUZZ_SEED not set";
  const std::uint64_t seed = std::strtoull(env, nullptr, 10);
  std::printf("WIRE_FUZZ_SEED=%llu\n", static_cast<unsigned long long>(seed));
  for (std::uint64_t k = 0; k < 4; ++k) {
    for (const WorkflowProfile& profile : table1_profiles()) {
      check_profile(profile, util::derive_seed(seed, k));
    }
  }
  for (std::uint64_t k = 0; k < 64; ++k) {
    check_profile(random_profile(util::derive_seed(seed, 100 + k)),
                  util::derive_seed(seed, 200 + k));
  }
}

TEST(WorkflowTemplateOwnership, InstanceOutlivesTemplate) {
  const WorkflowProfile profile = pagerank_profile(Scale::Small);
  std::optional<Workflow> instance;
  {
    const WorkflowTemplate shape(profile);
    instance.emplace(shape.instantiate(5));
  }
  expect_same_workflow(*instance, oracle::make_workflow(profile, 5));
}

TEST(WorkflowTemplateOwnership, CopiesAndInstancesShareTheGraph) {
  const WorkflowTemplate shape(epigenomics_profile(Scale::Small));
  const Workflow a = shape.instantiate(1);
  const Workflow b = shape.instantiate(2);
  const Workflow copy = a;
  for (TaskId t = 0; t < a.task_count(); ++t) {
    EXPECT_EQ(a.predecessors(t).data(), b.predecessors(t).data());
    EXPECT_EQ(a.successors(t).data(), copy.successors(t).data());
    EXPECT_EQ(a.task_name(t).data(), b.task_name(t).data());
  }
  EXPECT_EQ(a.topological_order().data(), b.topological_order().data());
  EXPECT_EQ(a.stage_tasks(0).data(), copy.stage_tasks(0).data());
  // The numbers are the instance's own.
  EXPECT_NE(a.tasks().data(), b.tasks().data());
  EXPECT_NE(a.tasks().data(), copy.tasks().data());
}

TEST(WorkflowTemplateOwnership, SeedsDifferOnlyInNumbers) {
  const WorkflowTemplate shape(tpch1_profile(Scale::Large));
  const Workflow a = shape.instantiate(3);
  const Workflow b = shape.instantiate(4);
  expect_same_graph(a, b);
  std::size_t differing = 0;
  for (TaskId t = 0; t < a.task_count(); ++t) {
    if (hex(a.task(t).ref_exec_seconds) != hex(b.task(t).ref_exec_seconds)) {
      ++differing;
    }
  }
  EXPECT_GT(differing, a.task_count() / 2);
}

TEST(WorkflowTemplateOwnership, WithTasksRejectsMismatchedNumbers) {
  const Workflow wf = make_workflow(tpch6_profile(Scale::Small), 1);
  const std::vector<dag::TaskSpec> good(wf.tasks().begin(), wf.tasks().end());
  expect_same_workflow(wf.with_tasks(good), wf);

  std::vector<dag::TaskSpec> shorter = good;
  shorter.pop_back();
  EXPECT_THROW((void)wf.with_tasks(shorter), util::ContractViolation);

  std::vector<dag::TaskSpec> renumbered = good;
  renumbered[1].id = 0;
  EXPECT_THROW((void)wf.with_tasks(renumbered), util::ContractViolation);

  std::vector<dag::TaskSpec> moved = good;
  moved.back().stage = 0;
  EXPECT_THROW((void)wf.with_tasks(moved), util::ContractViolation);

  std::vector<dag::TaskSpec> negative = good;
  negative[2].ref_exec_seconds = -1.0;
  EXPECT_THROW((void)wf.with_tasks(negative), util::ContractViolation);
}

TEST(WorkflowTemplateContract, RejectsMalformedProfiles) {
  WorkflowProfile empty;
  EXPECT_THROW(WorkflowTemplate{empty}, util::ContractViolation);

  WorkflowProfile no_source = tpch6_profile(Scale::Small);
  no_source.stages[0].link = StageLink::AllToAll;
  EXPECT_THROW(WorkflowTemplate{no_source}, util::ContractViolation);

  WorkflowProfile late_source = tpch6_profile(Scale::Small);
  late_source.stages[1].link = StageLink::Source;
  EXPECT_THROW(WorkflowTemplate{late_source}, util::ContractViolation);

  WorkflowProfile zero_width = tpch6_profile(Scale::Small);
  zero_width.stages[1].task_count = 0;
  EXPECT_THROW(WorkflowTemplate{zero_width}, util::ContractViolation);
}

}  // namespace
}  // namespace wire::workload
