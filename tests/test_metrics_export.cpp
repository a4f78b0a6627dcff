// Tests for the run-artifact exporters (Gantt, pool timeline, summaries)
// and the thread-count independence of the experiment runner.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/controller.h"
#include "exp/runner.h"
#include "metrics/export.h"
#include "policies/baselines.h"
#include "sim/driver.h"
#include "util/check.h"
#include "workload/generators.h"
#include "workload/profiles.h"

namespace wire::metrics {
namespace {

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

sim::RunResult run_genome(bool timeline) {
  const dag::Workflow wf = workload::make_workflow(
      workload::tpch6_profile(workload::Scale::Small), 7);
  core::WireController controller;
  sim::CloudConfig config;
  config.lag_seconds = 60.0;
  config.charging_unit_seconds = 300.0;
  sim::RunOptions options;
  options.seed = 2;
  options.initial_instances = 1;
  options.record_pool_timeline = timeline;
  return sim::simulate(wf, controller, config, options);
}

TEST(Export, GanttHasOneRowPerTaskWithOrderedTimes) {
  const dag::Workflow wf = workload::make_workflow(
      workload::tpch6_profile(workload::Scale::Small), 7);
  const sim::RunResult r = run_genome(false);
  const std::string path = "test_gantt.csv";
  write_gantt_csv(path, wf, r);
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u + wf.task_count());
  EXPECT_NE(lines[0].find("occupancy_start"), std::string::npos);
  // Spot check a data row: comma count and monotone fields.
  std::istringstream row(lines[1]);
  std::string field;
  std::vector<std::string> fields;
  while (std::getline(row, field, ',')) fields.push_back(field);
  ASSERT_EQ(fields.size(), 9u);
  const double start = std::stod(fields[4]);
  const double exec_start = std::stod(fields[5]);
  const double exec_end = std::stod(fields[6]);
  const double done = std::stod(fields[7]);
  EXPECT_LE(start, exec_start);
  EXPECT_LE(exec_start, exec_end);
  EXPECT_LE(exec_end, done);
  std::remove(path.c_str());
}

TEST(Export, TimelineRequiresRecording) {
  const sim::RunResult no_timeline = run_genome(false);
  EXPECT_THROW(write_timeline_csv("never.csv", no_timeline),
               util::ContractViolation);

  const sim::RunResult with_timeline = run_genome(true);
  const std::string path = "test_timeline.csv";
  write_timeline_csv(path, with_timeline);
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u + with_timeline.pool_timeline.size());
  std::remove(path.c_str());
}

TEST(Export, SummaryAppendsWithSingleHeader) {
  const sim::RunResult r = run_genome(false);
  const std::string path = "test_summary.csv";
  std::remove(path.c_str());
  write_summary_csv(path, r, /*append=*/true);
  write_summary_csv(path, r, /*append=*/true);
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 3u);  // header + 2 rows
  EXPECT_NE(lines[0].find("policy"), std::string::npos);
  EXPECT_NE(lines[1].find("wire"), std::string::npos);
  // Truncate mode rewrites the header.
  write_summary_csv(path, r, /*append=*/false);
  EXPECT_EQ(read_lines(path).size(), 2u);
  std::remove(path.c_str());
}

TEST(Study, ResultsIndependentOfThreadCount) {
  // A study must produce bit-identical results whether it runs on 1 thread
  // or many (per-run seeds are derived, not order-dependent).
  exp::Study serial;
  serial.workloads = {workload::make_workflow(
      workload::tpch6_profile(workload::Scale::Small), 7)};
  serial.clouds = {exp::paper_cloud(60.0), exp::paper_cloud(900.0)};
  serial.variants = {exp::policy_variant(exp::PolicyKind::PureReactive),
                     exp::policy_variant(exp::PolicyKind::Wire)};
  serial.repetitions = 2;
  serial.threads = 1;
  exp::Study parallel = serial;
  parallel.threads = 8;

  const auto a = serial.run();
  const auto b = parallel.run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].workload, b[i].workload);
    EXPECT_DOUBLE_EQ(a[i].stats.cost_units.mean(),
                     b[i].stats.cost_units.mean());
    EXPECT_DOUBLE_EQ(a[i].stats.makespan_seconds.mean(),
                     b[i].stats.makespan_seconds.mean());
    EXPECT_DOUBLE_EQ(a[i].cost_delta.mean, b[i].cost_delta.mean);
    for (std::size_t r = 0; r < a[i].runs.size(); ++r) {
      EXPECT_DOUBLE_EQ(a[i].runs[r].makespan, b[i].runs[r].makespan);
    }
  }
}

}  // namespace
}  // namespace wire::metrics
