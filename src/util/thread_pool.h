// parallel_for: fans experiment sweeps out across cores.
//
// Each index is independent (its own simulator instance seeded from
// derive_seed), so one atomic counter handing out indices is all the
// scheduling the sweeps need.
#pragma once

#include <cstddef>
#include <functional>

namespace wire::util {

/// Runs `fn(i)` for i in [0, count) on up to `threads` threads, the calling
/// thread included (`threads == 0` uses hardware_concurrency()), and blocks
/// until all complete. Indices are claimed atomically in increasing order;
/// which index lands on which thread is nondeterministic, so fn(i) must
/// write only to slot i. Every index runs even when some throw; afterwards
/// the lowest-index exception rethrows.
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn,
                  std::size_t threads = 0);

}  // namespace wire::util
