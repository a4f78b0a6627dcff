// The four wire_bench workloads. Each builds a fixed list of ops from the
// benchmark seed; one op is one sim::simulate call or one
// EnsembleDriver::run. Ops are independent and deterministic, so running an
// op again must reproduce its digest exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "probe.h"

namespace wire::suite {

/// Outcome of one op: its host time, the simulated quantities the
/// end-to-end metrics aggregate, a digest of every simulated output field,
/// and the first failed outside check.
struct OpResult {
  /// Host seconds of the simulator call alone (checks and digest excluded).
  double host_s = 0.0;
  std::uint64_t digest = 0;
  std::uint64_t jobs = 0;
  std::uint64_t tasks_completed = 0;
  /// Sum over jobs of completion minus arrival, simulated seconds.
  double response_s = 0.0;
  /// Sum over jobs of charging units.
  double cost_units = 0.0;
  /// RunResult::utilization, or the ensemble's site_utilization.
  double utilization = 0.0;
  /// Empty when every check passed.
  std::string error;
};

/// How an op runs.
enum class OpMode {
  /// The simulator call alone, as a user makes it.
  kTimed,
  /// Plus the outside checks that cost host time inside the call (the
  /// ensemble site listener).
  kChecked,
  /// kChecked through the traced path: timing decorators and the stepped
  /// engine loop, recording into a Recorder.
  kTraced,
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds every op's inputs from `seed`, replacing any earlier set. With a
  /// recorder, time spent instantiating DAGs is added to it.
  virtual void setup(std::uint64_t seed, Recorder* recorder) = 0;
  virtual std::size_t op_count() const = 0;
  /// Runs op `i` and checks its outputs; exceptions are reported as a failed
  /// check. `recorder` is required by, and only used in, OpMode::kTraced.
  /// Every mode gives the same digest.
  OpResult run(std::size_t i, OpMode mode, Recorder* recorder = nullptr);

 protected:
  virtual OpResult run_op(std::size_t i, OpMode mode, Recorder* recorder) = 0;
};

/// Names in the order run.sh runs them.
const std::vector<std::string>& workload_names();

/// The named workload at full size, or with a short op list for `smoke`
/// runs (one pass of it is about 1/20 of a full run's op executions).
/// Returns null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, bool smoke);

}  // namespace wire::suite
