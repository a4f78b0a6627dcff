// Memory-reservation sizing (the engine side of the memory dimension).
//
// The framework master books a memory reservation against instance capacity
// for every dispatched task. Sizing follows the Ponder / Sizey line of work:
// a statistical estimate over the peaks observed so far (mean or percentile,
// or the oracle's noise-free reference peak), a safety-factor of headroom,
// and selective upsizing — a task that was OOM-killed books
// `upsize_factor^oom_attempts` times the estimate on its next attempt.
//
// The statistical core (`sized_from_history`) is shared with the
// controller-side predict::MemoryPredictor so both sides size identically
// from identical histories; they differ only in *when* they observe peaks
// (the engine at completion events, the controller at control ticks).
//
// The oracle is no wastage floor once peaks are noisy: it books the reference
// peak times the safety factor, so with lognormal noise σ = 0.2 and the
// default 1.1 margin about 30% of true peaks exceed the reservation (~130 OOM
// kills per Genome S run in the memory study of bench_studies).
#pragma once

#include <cstdint>
#include <vector>

#include "dag/workflow.h"
#include "sim/config.h"

namespace wire::sim {

/// Statistical reservation estimate from a sorted peak history (MB,
/// ascending). Applies the sizing policy and safety factor but neither the
/// upsizing nor the capacity/floor clamps. `fair_share_mb` is the cold-start
/// estimate used when the history is empty (and by Sizing::Oracle it is
/// ignored); `ref_peak_mb` feeds the oracle only.
double sized_from_history(const std::vector<double>& sorted_peaks,
                          const MemoryConfig& config, double fair_share_mb,
                          double ref_peak_mb);

/// Clamps a base estimate into an actual reservation: applies the
/// retry-with-upsizing growth for `oom_attempts` prior OOM kills, the
/// reservation floor, and the instance-capacity ceiling (a reservation the
/// instance cannot hold would deadlock dispatch).
double clamp_reservation(double base_mb, const MemoryConfig& config,
                         std::uint32_t oom_attempts);

/// Engine-side reservation sizer: per-stage peak histories observed at task
/// completion. Inert (never consulted) when the memory dimension is off.
class TaskMemorySizer {
 public:
  TaskMemorySizer(const MemoryConfig& config, std::uint32_t slots_per_instance,
                  std::size_t stage_count);

  /// Records the true peak of a completed task.
  void observe_peak(dag::StageId stage, double peak_mb);

  /// Reservation for dispatching a task of `stage` after `oom_attempts`
  /// prior OOM kills. `ref_peak_mb` is the task's declared reference peak
  /// (oracle sizing only).
  double reservation_mb(dag::StageId stage, double ref_peak_mb,
                        std::uint32_t oom_attempts) const;

  /// Swaps the sizing configuration in place, keeping the accumulated peak
  /// histories (predict::MemoryPredictor::reconfigure). The fair-share
  /// cold-start estimate is re-derived from the new capacity.
  void reconfigure(const MemoryConfig& config,
                   std::uint32_t slots_per_instance);

 private:
  MemoryConfig config_;
  double fair_share_mb_ = 0.0;
  /// Sorted ascending per stage.
  std::vector<std::vector<double>> stage_peaks_;
};

}  // namespace wire::sim
