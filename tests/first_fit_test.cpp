// Tests for the bottom-up first-fit DAS scheduler: validity (weak DAS,
// non-colliding), compactness relative to the paper's top-down
// construction, and determinism.
#include "slpdas/das/first_fit.hpp"

#include <gtest/gtest.h>

#include "slpdas/das/centralized.hpp"
#include "slpdas/mac/schedule_io.hpp"
#include "slpdas/verify/das_checker.hpp"
#include "slpdas/wsn/paths.hpp"
#include "slpdas/wsn/topology.hpp"

namespace slpdas::das {
namespace {

TEST(FirstFitDasTest, CompleteAndStartsAtSlotOne) {
  const wsn::Topology grid = wsn::make_grid(7);
  const auto result = build_first_fit_das(grid.graph, grid.sink);
  EXPECT_TRUE(result.schedule.complete());
  EXPECT_EQ(result.schedule.min_slot(), 1);
}

TEST(FirstFitDasTest, ParentsFireAfterChildren) {
  const wsn::Topology grid = wsn::make_grid(7);
  const auto result = build_first_fit_das(grid.graph, grid.sink);
  for (wsn::NodeId node = 0; node < grid.graph.node_count(); ++node) {
    const wsn::NodeId parent = result.parent[static_cast<std::size_t>(node)];
    if (parent == wsn::kNoNode) {
      EXPECT_EQ(node, grid.sink);
      continue;
    }
    EXPECT_LT(result.schedule.slot(node), result.schedule.slot(parent));
  }
}

TEST(FirstFitDasTest, SinkHoldsTheLatestSlot) {
  const wsn::Topology grid = wsn::make_grid(9);
  const auto result = build_first_fit_das(grid.graph, grid.sink);
  EXPECT_EQ(result.sink_slot, result.schedule.slot(grid.sink));
  EXPECT_EQ(result.schedule.max_slot(), result.sink_slot);
}

TEST(FirstFitDasTest, MoreCompactThanTopDown) {
  // The whole point of the baseline: it uses a much narrower slot band
  // than the paper's Delta-anchored construction on the same topology.
  const wsn::Topology grid = wsn::make_grid(11);
  const auto first_fit = build_first_fit_das(grid.graph, grid.sink);
  const auto top_down = build_centralized_das(grid.graph, grid.sink, 100);
  const auto ff_stats = mac::compute_stats(first_fit.schedule);
  const auto td_stats = mac::compute_stats(top_down.schedule);
  EXPECT_LT(ff_stats.max_slot, 100);
  EXPECT_GT(ff_stats.density, td_stats.density);
}

TEST(FirstFitDasTest, DeterministicConstruction) {
  const wsn::Topology grid = wsn::make_grid(5);
  EXPECT_EQ(build_first_fit_das(grid.graph, grid.sink).schedule,
            build_first_fit_das(grid.graph, grid.sink).schedule);
}

TEST(FirstFitDasTest, ErrorsOnBadInput) {
  const wsn::Topology grid = wsn::make_grid(3);
  EXPECT_THROW((void)build_first_fit_das(grid.graph, 99), std::out_of_range);
  const wsn::Graph disconnected(3, {{0, 1}});
  EXPECT_THROW((void)build_first_fit_das(disconnected, 0),
               std::invalid_argument);
}

class FirstFitSweep : public ::testing::TestWithParam<wsn::Topology> {};

TEST_P(FirstFitSweep, ProducesWeakNonCollidingDas) {
  const wsn::Topology& topology = GetParam();
  const auto result = build_first_fit_das(topology.graph, topology.sink);
  EXPECT_TRUE(result.schedule.complete());
  const auto weak =
      verify::check_weak_das(topology.graph, result.schedule, topology.sink);
  EXPECT_TRUE(weak.ok()) << weak.summary();
  const auto collisions = verify::check_noncolliding(
      topology.graph, result.schedule, topology.sink);
  EXPECT_TRUE(collisions.ok()) << collisions.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, FirstFitSweep,
    ::testing::Values(wsn::make_grid(3), wsn::make_grid(7), wsn::make_grid(11),
                      wsn::make_grid(15), wsn::make_line(2), wsn::make_line(9),
                      wsn::make_ring(12),
                      wsn::make_random_unit_disk({.node_count = 60,
                                                  .area_side = 55.0,
                                                  .radio_range = 12.0,
                                                  .seed = 9})),
    [](const ::testing::TestParamInfo<wsn::Topology>& info) {
      return "t" + std::to_string(info.index) + "_n" +
             std::to_string(info.param.graph.node_count());
    });

}  // namespace
}  // namespace slpdas::das
