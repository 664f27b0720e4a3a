// Tests for the centralized reference scheduler: its output must satisfy
// the strong DAS definition on every topology we throw at it.
#include "slpdas/das/centralized.hpp"

#include <gtest/gtest.h>

#include "slpdas/verify/das_checker.hpp"
#include "slpdas/wsn/paths.hpp"
#include "slpdas/wsn/topology.hpp"

namespace slpdas::das {
namespace {

TEST(CentralizedDasTest, SinkAnchoredAtRequestedSlot) {
  const wsn::Topology grid = wsn::make_grid(5);
  const auto result = build_centralized_das(grid.graph, grid.sink, 100);
  EXPECT_EQ(result.schedule.slot(grid.sink), 100);
  EXPECT_EQ(result.hop[static_cast<std::size_t>(grid.sink)], 0);
  EXPECT_EQ(result.parent[static_cast<std::size_t>(grid.sink)], wsn::kNoNode);
}

TEST(CentralizedDasTest, CompleteAssignment) {
  const wsn::Topology grid = wsn::make_grid(7);
  const auto result = build_centralized_das(grid.graph, grid.sink);
  EXPECT_TRUE(result.schedule.complete());
}

TEST(CentralizedDasTest, ParentsPointStrictlyCloserToSink) {
  const wsn::Topology grid = wsn::make_grid(7);
  const auto result = build_centralized_das(grid.graph, grid.sink);
  const auto distance = wsn::bfs_distances(grid.graph, grid.sink);
  for (wsn::NodeId node = 0; node < grid.graph.node_count(); ++node) {
    if (node == grid.sink) {
      continue;
    }
    const wsn::NodeId parent = result.parent[static_cast<std::size_t>(node)];
    ASSERT_NE(parent, wsn::kNoNode);
    EXPECT_TRUE(grid.graph.has_edge(node, parent));
    EXPECT_EQ(distance[static_cast<std::size_t>(parent)],
              distance[static_cast<std::size_t>(node)] - 1);
    // Children transmit strictly before their parents.
    EXPECT_LT(result.schedule.slot(node), result.schedule.slot(parent));
  }
}

TEST(CentralizedDasTest, DeterministicConstruction) {
  const wsn::Topology grid = wsn::make_grid(5);
  EXPECT_EQ(build_centralized_das(grid.graph, grid.sink).schedule,
            build_centralized_das(grid.graph, grid.sink).schedule);
}

TEST(CentralizedDasTest, ErrorsOnBadInput) {
  const wsn::Topology grid = wsn::make_grid(3);
  EXPECT_THROW(build_centralized_das(grid.graph, 99), std::out_of_range);
  const wsn::Graph disconnected(4, {{0, 1}});
  EXPECT_THROW(build_centralized_das(disconnected, 0), std::invalid_argument);
}

class CentralizedStrongDasSweep
    : public ::testing::TestWithParam<wsn::Topology> {};

TEST_P(CentralizedStrongDasSweep, SatisfiesStrongDas) {
  const wsn::Topology& topology = GetParam();
  const auto result = build_centralized_das(topology.graph, topology.sink);
  const auto check =
      verify::check_strong_das(topology.graph, result.schedule, topology.sink);
  EXPECT_TRUE(check.ok()) << check.summary();
}

TEST_P(CentralizedStrongDasSweep, NonCollidingEverywhere) {
  const wsn::Topology& topology = GetParam();
  const auto result = build_centralized_das(topology.graph, topology.sink);
  for (wsn::NodeId node = 0; node < topology.graph.node_count(); ++node) {
    EXPECT_TRUE(verify::is_noncolliding(topology.graph, result.schedule, node,
                                        topology.sink))
        << "node " << node;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, CentralizedStrongDasSweep,
    ::testing::Values(wsn::make_grid(3), wsn::make_grid(5), wsn::make_grid(7),
                      wsn::make_grid(11), wsn::make_line(2), wsn::make_line(9),
                      wsn::make_ring(8), wsn::make_ring(13),
                      wsn::make_random_unit_disk({.node_count = 50,
                                                  .area_side = 50.0,
                                                  .radio_range = 12.0,
                                                  .seed = 3}),
                      wsn::make_random_unit_disk({.node_count = 80,
                                                  .area_side = 70.0,
                                                  .radio_range = 13.0,
                                                  .seed = 21})),
    [](const ::testing::TestParamInfo<wsn::Topology>& info) {
      return "t" + std::to_string(info.index) + "_n" +
             std::to_string(info.param.graph.node_count());
    });

}  // namespace
}  // namespace slpdas::das
