// Test-only reference workflow instantiation: the per-seed WorkflowBuilder
// pass workload::make_workflow ran before the graph/number split
// (workload::WorkflowTemplate). For every profile and seed both must yield
// the same workflow field for field, bit for bit
// (tests/test_workload_template.cpp).
#pragma once

#include <cstdint>

#include "dag/workflow.h"
#include "workload/profiles.h"

namespace wire::workload::oracle {

/// Builds the whole workflow — names, dependencies and numbers — in one
/// builder pass, drawing the numbers in the order the template draws them.
dag::Workflow make_workflow(const WorkflowProfile& profile,
                            std::uint64_t seed);

}  // namespace wire::workload::oracle
