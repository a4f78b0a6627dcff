// Ensemble metrics: per-job outcomes and site-level aggregates for one
// multi-tenant run. The per-job slowdown is measured against the same job's
// dedicated-site makespan (same workflow, policy, seeds, full site cap, no
// contention), so it isolates exactly what sharing cost the job: queue wait
// plus the stretch from running under an arbiter share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.h"

namespace wire::ensemble {

/// Outcome of one job of the stream. All times are site-clock seconds.
struct JobOutcome {
  std::uint32_t job = 0;
  std::string workflow_name;
  sim::SimTime arrival_seconds = 0.0;
  /// When the arbiter first granted the job capacity (its engine bootstrap).
  sim::SimTime admitted_seconds = 0.0;
  sim::SimTime completed_seconds = 0.0;
  /// admitted - arrival.
  sim::SimTime queue_wait_seconds = 0.0;
  /// completed - admitted (the job's in-system makespan).
  sim::SimTime makespan_seconds = 0.0;
  /// Makespan of the identical run alone on the full site; 0 when the
  /// dedicated baseline was disabled.
  sim::SimTime dedicated_makespan_seconds = 0.0;
  /// (queue wait + makespan) / dedicated makespan; 0 when disabled.
  double slowdown = 0.0;
  /// Charging units billed to this job.
  double cost_units = 0.0;
  /// Budget (charging units) the job ran under; 0 = unbudgeted.
  double budget_units = 0.0;
  /// max(0, cost - budget) when budgeted — the minimum-progress overrun a
  /// budget policy is permitted past exhaustion. Always 0 when unbudgeted.
  double over_budget_units = 0.0;
  std::uint32_t peak_instances = 0;
  std::uint32_t task_restarts = 0;
  /// Transient task failures injected into this job's tasks (fault model).
  std::uint32_t task_faults = 0;
  /// Instance crashes suffered by this job's pool (fault model).
  std::uint32_t instance_crashes = 0;
  /// Tasks quarantined after exhausting their retry budget.
  std::uint32_t quarantined_tasks = 0;

  /// Every field, exactly (the windowed-vs-reference differentials).
  friend bool operator==(const JobOutcome&, const JobOutcome&) = default;
};

/// Site-level result of one ensemble run.
struct EnsembleReport {
  std::string tenant_policy;
  std::string arbiter_strategy;
  std::uint32_t site_cap = 0;
  std::uint32_t slots_per_instance = 0;
  /// Jobs in arrival order.
  std::vector<JobOutcome> jobs;

  // --- Aggregates (filled by finalize()) ---
  /// Completion time of the last job (site clock).
  sim::SimTime horizon_seconds = 0.0;
  double total_cost_units = 0.0;
  /// Successful busy slot-seconds / (site_cap * slots * horizon): how much of
  /// the site's theoretical capacity did useful work.
  double site_utilization = 0.0;
  /// Allocated instance-seconds / (site_cap * horizon): how much of the site
  /// the tenants held.
  double allocation_ratio = 0.0;
  double throughput_jobs_per_hour = 0.0;
  double mean_queue_wait_seconds = 0.0;
  double mean_slowdown = 0.0;
  double max_slowdown = 0.0;
  /// Site-wide fault totals (all zero when the fault model is disabled).
  std::uint32_t total_task_faults = 0;
  std::uint32_t total_instance_crashes = 0;
  std::uint32_t total_quarantined_tasks = 0;
  /// Site-wide budget totals (all zero when no job carries a budget).
  double total_over_budget_units = 0.0;
  std::uint32_t jobs_over_budget = 0;

  /// Recomputes every aggregate from `jobs` plus the per-job raw inputs
  /// recorded by the driver. Called by the driver; exposed for tests.
  void finalize(double busy_slot_seconds, double allocated_instance_seconds);

  /// Fixed-width summary: one row per job plus the aggregate block.
  /// Byte-identical across runs with the same (arrival seed, config).
  std::string render() const;

  /// Every field, exactly (the windowed-vs-reference differentials).
  friend bool operator==(const EnsembleReport&,
                         const EnsembleReport&) = default;
};

}  // namespace wire::ensemble
