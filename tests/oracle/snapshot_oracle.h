// Test-only from-scratch monitoring snapshot: the O(total tasks)
// reconstruction the incremental sim::MonitorStore replaced on the
// control-tick hot path. For any engine state the store's snapshot must
// equal this one field for field (tests/test_sim_monitor_store.cpp,
// tests/test_sim_faults.cpp); bench_overhead times the two against each
// other.
#pragma once

#include <vector>

#include "sim/config.h"
#include "sim/engine.h"
#include "sim/framework.h"
#include "sim/monitor.h"

namespace wire::sim::oracle {

/// One observation row per task of the framework's workflow, rebuilt from its
/// TaskRuntime records at `now`.
void fill_observations(const FrameworkMaster& framework, SimTime now,
                       std::vector<TaskObservation>& out);

/// The whole snapshot of `engine` at `now`, rebuilt from its framework and
/// cloud pool. `config` is the CloudConfig the engine was built with. The
/// result carries an empty, non-exact delta.
MonitorSnapshot rebuild_snapshot(const JobEngine& engine,
                                 const CloudConfig& config, SimTime now);

}  // namespace wire::sim::oracle
