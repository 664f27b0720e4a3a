// Tests for BFS distances, connectivity and the shortest-path-parents
// relation used by the strong-DAS checker (Definition 2 condition 3).
#include "slpdas/wsn/paths.hpp"

#include <gtest/gtest.h>

#include "slpdas/wsn/topology.hpp"

namespace slpdas::wsn {
namespace {

Graph disconnected_pair() {
  return Graph(2);  // two isolated vertices
}

TEST(PathsTest, BfsDistancesOnLine) {
  const Topology line = make_line(5);
  const auto distances = bfs_distances(line.graph, 0);
  EXPECT_EQ(distances, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(PathsTest, BfsDistancesUnreachable) {
  const auto distances = bfs_distances(disconnected_pair(), 0);
  EXPECT_EQ(distances[1], kUnreachable);
}

TEST(PathsTest, BfsOriginOutOfRange) {
  EXPECT_THROW(bfs_distances(Graph(2), 5), std::out_of_range);
}

TEST(PathsTest, HopDistanceSymmetric) {
  const Topology grid = make_grid(5);
  EXPECT_EQ(hop_distance(grid.graph, grid.source, grid.sink),
            hop_distance(grid.graph, grid.sink, grid.source));
}

TEST(PathsTest, ConnectivityChecks) {
  EXPECT_TRUE(is_connected(make_grid(5).graph));
  EXPECT_FALSE(is_connected(disconnected_pair()));
  EXPECT_TRUE(is_connected(Graph{}));
}

TEST(PathsTest, ShortestPathParentsOnGrid) {
  const Topology grid = make_grid(3);  // sink = centre node 4
  const auto parents = shortest_path_parents(grid.graph, grid.sink);
  // The corner 0 has two shortest-path neighbours toward the centre: 1, 3.
  EXPECT_EQ(parents[0], (std::vector<NodeId>{1, 3}));
  // Edge-midpoint 1 is adjacent to the sink: its only closer neighbour is 4.
  EXPECT_EQ(parents[1], (std::vector<NodeId>{4}));
  // The sink itself has no parents.
  EXPECT_TRUE(parents[static_cast<std::size_t>(grid.sink)].empty());
}

TEST(PathsTest, ShortestPathParentsNeverIncreaseDistance) {
  const Topology grid = make_grid(7);
  const auto distance = bfs_distances(grid.graph, grid.sink);
  const auto parents = shortest_path_parents(grid.graph, grid.sink);
  for (NodeId node = 0; node < grid.graph.node_count(); ++node) {
    for (NodeId parent : parents[static_cast<std::size_t>(node)]) {
      EXPECT_EQ(distance[static_cast<std::size_t>(parent)],
                distance[static_cast<std::size_t>(node)] - 1);
    }
  }
}

}  // namespace
}  // namespace slpdas::wsn
