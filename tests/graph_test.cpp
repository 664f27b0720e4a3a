// Unit tests for slpdas::wsn::Graph, including the 2-hop neighbourhood
// CG(n) that Definition 1 (non-colliding slots) quantifies over, and the
// CSR reverse links the simulator hands every reception, on hand-built,
// random and every topology generator's graphs.
#include "slpdas/wsn/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "slpdas/rng.hpp"
#include "slpdas/wsn/topology.hpp"

namespace slpdas::wsn {
namespace {

/// Every directed edge (a, k): the k-th neighbour's row holds `a` at the
/// reverse link, and every row is strictly ascending.
void expect_reverse_links_hold(const Graph& graph) {
  std::size_t directed = 0;
  for (NodeId a = 0; a < graph.node_count(); ++a) {
    const auto row = graph.neighbors(a);
    const auto links = graph.reverse_links(a);
    ASSERT_EQ(links.size(), row.size());
    EXPECT_TRUE(std::adjacent_find(row.begin(), row.end(),
                                   std::greater_equal<>()) == row.end())
        << "row " << a << " is not strictly ascending";
    for (std::size_t k = 0; k < row.size(); ++k) {
      const auto back = graph.neighbors(row[k]);
      ASSERT_LT(links[k], back.size());
      EXPECT_EQ(back[links[k]], a) << "edge " << a << " -> " << row[k];
      ++directed;
    }
  }
  EXPECT_EQ(directed, 2 * graph.edge_count());
}

TEST(GraphTest, EmptyGraphHasNoNodesOrEdges) {
  const Graph graph;
  EXPECT_EQ(graph.node_count(), 0);
  EXPECT_EQ(graph.edge_count(), 0u);
  EXPECT_FALSE(graph.contains(0));
}

TEST(GraphTest, NegativeNodeCountRejected) {
  EXPECT_THROW(Graph(-1), std::invalid_argument);
}

TEST(GraphTest, EdgeConnectsBothDirections) {
  const Graph graph(3, {{0, 2}});
  EXPECT_TRUE(graph.has_edge(0, 2));
  EXPECT_TRUE(graph.has_edge(2, 0));
  EXPECT_FALSE(graph.has_edge(0, 1));
  EXPECT_EQ(graph.edge_count(), 1u);
}

TEST(GraphTest, SelfLoopRejected) {
  EXPECT_THROW(Graph(2, {{1, 1}}), std::invalid_argument);
}

TEST(GraphTest, DuplicateEdgeRejected) {
  EXPECT_THROW(Graph(2, {{0, 1}, {0, 1}}), std::invalid_argument);
  EXPECT_THROW(Graph(2, {{0, 1}, {1, 0}}), std::invalid_argument);
  EXPECT_THROW(Graph(4, {{2, 3}, {0, 1}, {1, 2}, {3, 2}}),
               std::invalid_argument);
}

TEST(GraphTest, OutOfRangeNodeRejected) {
  EXPECT_THROW(Graph(2, {{0, 2}}), std::out_of_range);
  EXPECT_THROW(Graph(2, {{-1, 0}}), std::out_of_range);
  const Graph graph(2);
  EXPECT_THROW((void)graph.neighbors(5), std::out_of_range);
  EXPECT_THROW((void)graph.reverse_links(-1), std::out_of_range);
  EXPECT_THROW((void)graph.has_edge(0, 2), std::out_of_range);
}

TEST(GraphTest, NeighborsAreSorted) {
  const Graph graph(5, {{2, 4}, {2, 0}, {2, 3}});
  const auto neighbors = graph.neighbors(2);
  EXPECT_TRUE(std::is_sorted(neighbors.begin(), neighbors.end()));
  EXPECT_EQ(neighbors.size(), 3u);
  EXPECT_EQ(graph.degree(2), 3u);
}

TEST(GraphTest, ReverseLinksOfHandBuiltEdgeLists) {
  // A star listed leaves-first, a path in descending order, a triangle
  // plus a pendant in mixed orientations, and an isolated vertex.
  expect_reverse_links_hold(Graph(6, {{5, 0}, {3, 0}, {0, 1}, {4, 0}, {2, 0}}));
  expect_reverse_links_hold(Graph(5, {{4, 3}, {3, 2}, {2, 1}, {1, 0}}));
  expect_reverse_links_hold(Graph(5, {{2, 1}, {0, 2}, {1, 0}, {3, 1}}));
  const Graph star(4, {{3, 0}, {1, 0}, {0, 2}});
  EXPECT_EQ(star.neighbors(0)[star.reverse_links(3)[0]], 3);
  EXPECT_EQ(star.reverse_links(0)[0], 0u);  // 0 is the only entry of 1's row
}

TEST(GraphTest, ReverseLinksOfRandomEdgeLists) {
  Rng rng(20261017);
  for (int trial = 0; trial < 40; ++trial) {
    const auto nodes = static_cast<NodeId>(2 + rng.uniform(40));
    std::set<std::pair<NodeId, NodeId>> seen;
    std::vector<Edge> edges;
    const auto attempts = rng.uniform(200);
    for (std::uint64_t i = 0; i < attempts; ++i) {
      const auto a = static_cast<NodeId>(rng.uniform(
          static_cast<std::uint64_t>(nodes)));
      const auto b = static_cast<NodeId>(rng.uniform(
          static_cast<std::uint64_t>(nodes)));
      if (a != b && seen.insert({std::min(a, b), std::max(a, b)}).second) {
        edges.emplace_back(a, b);
      }
    }
    const Graph graph(nodes, edges);
    EXPECT_EQ(graph.edge_count(), edges.size());
    for (const auto& [a, b] : edges) {
      EXPECT_TRUE(graph.has_edge(a, b));
    }
    expect_reverse_links_hold(graph);
  }
}

TEST(GraphTest, ReverseLinksOfEveryGenerator) {
  UnitDiskParams disk;
  disk.node_count = 120;
  disk.area_side = 60.0;
  disk.radio_range = 11.0;
  disk.seed = 9;
  for (const Topology& topology :
       {make_grid(11), make_grid(4, 3, 1.0, NodeId{0}, NodeId{11}),
        make_line(17), make_ring(12), make_random_unit_disk(disk)}) {
    SCOPED_TRACE(topology.graph.to_string());
    expect_reverse_links_hold(topology.graph);
  }
}

TEST(GraphTest, TwoHopNeighborhoodOnPath) {
  // 0 - 1 - 2 - 3 - 4: CG(2) = {0, 1, 3, 4}.
  const Graph graph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const auto cg2 = graph.two_hop_neighborhood(2);
  EXPECT_EQ(cg2, (std::vector<NodeId>{0, 1, 3, 4}));
  const auto cg0 = graph.two_hop_neighborhood(0);
  EXPECT_EQ(cg0, (std::vector<NodeId>{1, 2}));
}

TEST(GraphTest, TwoHopNeighborhoodExcludesSelfAndDeduplicates) {
  // Triangle: every node's CG is the other two, once each.
  const Graph graph(3, {{0, 1}, {1, 2}, {0, 2}});
  for (NodeId n = 0; n < 3; ++n) {
    const auto cg = graph.two_hop_neighborhood(n);
    EXPECT_EQ(cg.size(), 2u);
    EXPECT_EQ(std::count(cg.begin(), cg.end(), n), 0);
  }
}

TEST(GraphTest, NodesEnumeratesAllIds) {
  const Graph graph(4);
  EXPECT_EQ(graph.nodes(), (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(GraphTest, ToStringSummarises) {
  const Graph graph(2, {{0, 1}});
  EXPECT_EQ(graph.to_string(), "Graph(V=2, E=1)");
}

}  // namespace
}  // namespace slpdas::wsn
