// Focused tests for subtle behaviours added during development: OGD
// coefficient preservation across normalization rescales, the steering
// policy's planned-size output, and the workload profile registry.
#include <gtest/gtest.h>

#include <cmath>

#include "core/steering.h"
#include "predict/ogd.h"
#include "util/check.h"
#include "workload/profiles.h"

namespace wire {
namespace {

TEST(OgdRescale, FittedFunctionPreservedAcrossScaleGrowth) {
  // Train on small inputs, then feed a training set with a 50x larger input:
  // the internal normalization must rescale without changing the fitted
  // function at the moment of the rescale.
  predict::OgdModel model;
  std::vector<predict::TrainingPoint> small = {
      {1.0, 2.0}, {2.0, 3.0}, {4.0, 5.0}};
  for (int i = 0; i < 300; ++i) model.update(small);
  const double before_a0 = model.alpha0();
  const double before_a1 = model.alpha1();
  const double before_pred = model.predict(3.0);

  // One update with a far larger point triggers the rescale. Raw-space
  // coefficients must match the pre-rescale values up to the single
  // gradient step's movement.
  std::vector<predict::TrainingPoint> grown = small;
  grown.push_back({200.0, 201.0});
  model.update(grown);
  EXPECT_NEAR(model.alpha0(), before_a0, 0.35 + std::abs(before_a0) * 0.5);
  EXPECT_NEAR(model.alpha1(), before_a1, 0.5);
  // Predictions in the old range stay sane (not zeroed or exploded).
  EXPECT_GT(model.predict(3.0), 0.2 * before_pred);
  EXPECT_LT(model.predict(3.0), 5.0 * before_pred);

  // And continued training on the grown set converges to its line t=d+1.
  for (int i = 0; i < 2000; ++i) model.update(grown);
  EXPECT_NEAR(model.predict(100.0), 101.0, 8.0);
}

TEST(Steering, PlannedSizeOutParameterMatchesAlgorithm3) {
  core::LookaheadResult lookahead;
  for (int i = 0; i < 8; ++i) {
    lookahead.upcoming.push_back(
        core::UpcomingTask{1800.0, static_cast<dag::TaskId>(i), false});
  }
  sim::MonitorSnapshot snap;
  snap.incomplete_tasks = 8;
  sim::CloudConfig config;
  config.lag_seconds = 180.0;
  config.charging_unit_seconds = 900.0;
  config.slots_per_instance = 4;

  std::uint32_t planned = 0;
  core::steer(lookahead, snap, config, &planned);
  std::vector<double> occupancy(8, 1800.0);
  EXPECT_EQ(planned, core::resize_pool(occupancy, 900.0, 4));

  // Empty load with incomplete tasks: the minimal pool.
  core::LookaheadResult empty;
  core::steer(empty, snap, config, &planned);
  EXPECT_EQ(planned, 1u);
  snap.incomplete_tasks = 0;
  core::steer(empty, snap, config, &planned);
  EXPECT_EQ(planned, 0u);
}

TEST(Steering, OnSlotPinningRaisesThePlan) {
  // Four short on-slot tasks vs four short queued tasks: the on-slot group
  // pins a full instance; the queued group packs to one anyway — but mixing
  // them shows the pin inflating only the on-slot contribution.
  sim::CloudConfig config;
  config.lag_seconds = 180.0;
  config.charging_unit_seconds = 900.0;
  config.slots_per_instance = 4;
  sim::MonitorSnapshot snap;
  snap.incomplete_tasks = 8;

  core::LookaheadResult queued_only;
  for (int i = 0; i < 8; ++i) {
    queued_only.upcoming.push_back(
        core::UpcomingTask{30.0, static_cast<dag::TaskId>(i), false});
  }
  std::uint32_t planned_queued = 0;
  core::steer(queued_only, snap, config, &planned_queued);

  core::LookaheadResult pinned;
  for (int i = 0; i < 8; ++i) {
    // First four are on slots: each counts a full charging unit.
    pinned.upcoming.push_back(
        core::UpcomingTask{30.0, static_cast<dag::TaskId>(i), i < 4});
  }
  std::uint32_t planned_pinned = 0;
  core::steer(pinned, snap, config, &planned_pinned);
  EXPECT_GE(planned_pinned, planned_queued);
  EXPECT_EQ(planned_queued, 1u);
}

TEST(Profiles, RegistryOrderAndNaming) {
  const auto all = workload::table1_profiles();
  const char* expected[] = {"Genome S",   "Genome L",   "TPCH-1 S",
                            "TPCH-1 L",   "TPCH-6 S",   "TPCH-6 L",
                            "PageRank S", "PageRank L"};
  ASSERT_EQ(all.size(), 8u);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].name, expected[i]);
    EXPECT_FALSE(all[i].stages.empty());
    EXPECT_FALSE(all[i].framework.empty());
  }
}

TEST(Profiles, StageLinkDisciplineHolds) {
  for (const auto& profile : workload::table1_profiles()) {
    EXPECT_EQ(profile.stages.front().link, workload::StageLink::Source)
        << profile.name;
    for (std::size_t s = 1; s < profile.stages.size(); ++s) {
      EXPECT_NE(profile.stages[s].link, workload::StageLink::Source)
          << profile.name << " stage " << s;
      EXPECT_GT(profile.stages[s].mean_exec_seconds, 0.0);
      EXPECT_GT(profile.stages[s].stage_input_mb, 0.0);
    }
  }
}

}  // namespace
}  // namespace wire
