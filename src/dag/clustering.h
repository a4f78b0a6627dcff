// Horizontal task clustering (the Pegasus technique the paper cites via
// Chen et al. [8], "Using imbalance metrics to optimize task clustering in
// scientific workflow executions").
//
// Clustering merges groups of peer tasks within a stage into single
// "clustered jobs" that run their members sequentially on one slot. It
// trades parallelism for lower per-task overhead and longer slot occupancy —
// which interacts directly with WIRE's charging-unit economics: Figure 3
// shows elasticity collapsing when tasks are short relative to u, and
// clustering is the classic lever that lengthens tasks. The clustering study
// of bench_studies measures that interaction.
#pragma once

#include <cstdint>
#include <vector>

#include "dag/workflow.h"

namespace wire::dag {

struct ClusterOptions {
  /// Maximum members per clustered job.
  std::uint32_t factor = 4;
  /// Stages with fewer tasks than this are left unclustered (clustering a
  /// narrow stage only serializes it).
  std::uint32_t min_stage_tasks = 8;
};

/// Result of a clustering transformation.
struct ClusteredWorkflow {
  Workflow workflow;
  /// Original task id -> clustered task id (surjective).
  std::vector<TaskId> task_mapping;
  /// Number of clustered jobs that contain more than one original task.
  std::uint32_t merged_jobs = 0;
};

/// Clusters each eligible stage horizontally: members are grouped in id
/// order, `factor` per job. A clustered job's execution time is the sum of
/// its members' (sequential execution on one slot), its input/output sizes
/// are the sums, and its predecessors are the union of the members'
/// predecessors mapped through the transformation. Stage structure is
/// preserved (one output stage per input stage).
ClusteredWorkflow cluster_horizontal(const Workflow& workflow,
                                     const ClusterOptions& options = {});

}  // namespace wire::dag
