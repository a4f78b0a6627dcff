// Test-only reference implementations of the site arbiter (see
// arbiter_oracle.cpp). Same contracts as ensemble/arbiter.h; the production
// functions must return exactly what these return for every input.
#pragma once

#include <cstdint>
#include <vector>

#include "ensemble/arbiter.h"

namespace wire::ensemble::oracle {

std::vector<std::uint32_t> allocate_shares(
    ArbiterStrategy strategy, const ArbiterConfig& config,
    const std::vector<TenantDemand>& tenants);

std::vector<CheckpointGrant> allocate_checkpoint_windows(
    const ArbiterConfig& config, const std::vector<TenantDemand>& tenants);

}  // namespace wire::ensemble::oracle
