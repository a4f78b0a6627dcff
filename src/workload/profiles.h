// Declarative per-stage profiles for the paper's Table I sample workflows.
//
// The paper evaluates four workflows (Epigenomics, TPCH-1, TPCH-6, PageRank),
// each on a Small and a Large dataset — eight runs total. The original
// experiments replay recorded Hadoop/Condor traces through a task emulator;
// we instead synthesize workflows whose stage structure, task counts,
// per-stage mean execution times, and dataset sizes match the published
// characterization. Each profile below is one row group of Table I.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace wire::workload {

/// How consecutive stages are wired together.
enum class StageLink {
  /// Stage has no predecessors (workflow roots).
  Source,
  /// One-to-one pipeline from the previous stage (requires equal width, or
  /// round-robin mapping when widths differ).
  Partition,
  /// Every task depends on every task of the previous stage (Hadoop shuffle /
  /// Pegasus merge barrier).
  AllToAll,
  /// Every task depends on a single task of the previous stage chosen
  /// round-robin (fan-out from a splitter).
  FanOut,
};

/// Declarative description of one stage.
struct StageProfile {
  std::string name;
  std::uint32_t task_count = 0;
  /// Target mean task execution time on the reference instance (seconds).
  double mean_exec_seconds = 0.0;
  /// Aggregate input bytes processed by the stage, MB.
  double stage_input_mb = 0.0;
  StageLink link = StageLink::AllToAll;
  /// Mean peak memory per task of the stage, MB (0 = no memory profile; the
  /// memory dimension stays inert for such stages). The published traces do
  /// not report per-stage memory, so these are plausible footprints chosen to
  /// exercise the memory-aware packing without dominating it.
  double mean_peak_mem_mb = 0.0;
};

/// One Table I run: a named list of stage profiles plus skew parameters.
///
/// Intra-stage load skew (Observation 1) is modeled the way it arises in
/// Hadoop/Pegasus runs: tasks process quantized input blocks (most tasks get
/// a full block, some get fractions or multiples from data skew), and
/// execution time is proportional to the input size up to a small residual.
/// This gives the predictor the same structure the paper exploits: peers
/// with equivalent input sizes behave alike (policy 4), new sizes follow an
/// approximately linear relation (policy 5 / OGD).
struct WorkflowProfile {
  std::string name;         // e.g. "Genome S"
  std::string family;       // e.g. "Epigenomics"
  std::string framework;    // "Condor" or "Hadoop"
  std::vector<StageProfile> stages;
  /// Lognormal sigma of the residual execution-time noise around the linear
  /// input-size relation.
  double exec_residual_sigma = 0.05;
  /// Probability that a task processes a non-standard block (heavier skew
  /// classes become more likely as this grows).
  double skew_class_probability = 0.35;
  /// Lognormal sigma of the per-task peak-memory spread around the stage
  /// mean (drawn from a separate RNG stream so enabling memory never changes
  /// the execution-time/skew draws).
  double mem_residual_sigma = 0.2;
};

/// Small/Large dataset selector (the two columns per workflow in Table I).
enum class Scale { Small, Large };

/// Profiles for the four paper workflows at a given scale.
WorkflowProfile epigenomics_profile(Scale scale);
WorkflowProfile tpch1_profile(Scale scale);
WorkflowProfile tpch6_profile(Scale scale);
WorkflowProfile pagerank_profile(Scale scale);

/// All eight Table I runs in paper order.
std::vector<WorkflowProfile> table1_profiles();

}  // namespace wire::workload
