// Tests for topology generators, especially the paper's evaluation grids
// (Section VI-A: 11x11 / 15x15 / 21x21, source top-left, sink centre,
// horizontal/vertical links only).
#include "slpdas/wsn/topology.hpp"

#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "slpdas/wsn/paths.hpp"

namespace slpdas::wsn {
namespace {

TEST(GridTopologyTest, PaperGridShape11) {
  const Topology topology = make_grid(11);
  EXPECT_EQ(topology.graph.node_count(), 121);
  // 4-connected grid: 2 * side * (side - 1) edges.
  EXPECT_EQ(topology.graph.edge_count(), 220u);
  EXPECT_EQ(topology.source, grid_node(11, 0, 0));
  EXPECT_EQ(topology.sink, grid_node(11, 5, 5));
}

TEST(GridTopologyTest, CornerAndCentreDegrees) {
  const Topology topology = make_grid(5);
  EXPECT_EQ(topology.graph.degree(grid_node(5, 0, 0)), 2u);
  EXPECT_EQ(topology.graph.degree(grid_node(5, 2, 0)), 3u);
  EXPECT_EQ(topology.graph.degree(grid_node(5, 2, 2)), 4u);
}

TEST(GridTopologyTest, OnlyHorizontalVerticalLinks) {
  const Topology topology = make_grid(5);
  EXPECT_FALSE(topology.graph.has_edge(grid_node(5, 0, 0), grid_node(5, 1, 1)));
  EXPECT_TRUE(topology.graph.has_edge(grid_node(5, 0, 0), grid_node(5, 1, 0)));
  EXPECT_TRUE(topology.graph.has_edge(grid_node(5, 0, 0), grid_node(5, 0, 1)));
}

TEST(GridTopologyTest, SpacingSetsPositions) {
  const Topology topology = make_grid(3, 4.5);
  const auto& p = topology.positions[static_cast<std::size_t>(grid_node(3, 2, 1))];
  EXPECT_DOUBLE_EQ(p.x, 9.0);
  EXPECT_DOUBLE_EQ(p.y, 4.5);
}

TEST(GridTopologyTest, EvenOrTinySideRejected) {
  EXPECT_THROW(make_grid(10), std::invalid_argument);
  EXPECT_THROW(make_grid(1), std::invalid_argument);
  EXPECT_THROW(make_grid(-3), std::invalid_argument);
}

TEST(GridTopologyTest, SourceSinkDistanceMatchesPaper) {
  // Source top-left, sink centre: Delta_ss = 2 * (side/2).
  for (int side : {11, 15, 21}) {
    const Topology topology = make_grid(side);
    EXPECT_EQ(hop_distance(topology.graph, topology.source, topology.sink),
              2 * (side / 2))
        << "side=" << side;
  }
}

TEST(GridTopologyTest, RectangularGridWithExplicitEndpoints) {
  const Topology topology = make_grid(4, 3, 1.0, NodeId{3}, NodeId{8});
  EXPECT_EQ(topology.graph.node_count(), 12);
  EXPECT_EQ(topology.source, 3);
  EXPECT_EQ(topology.sink, 8);
}

TEST(GridTopologyTest, RejectsSourceEqualSink) {
  // A convergecast whose asset sits on the base station is degenerate:
  // the attacker starts captured and no delivery crosses a link.
  EXPECT_THROW(make_grid(3, 3, 1.0, NodeId{4}, NodeId{4}),
               std::invalid_argument);
  // Also caught when only one endpoint is explicit and it collides with
  // the other's default (centre sink of a 3x3 grid is node 4).
  EXPECT_THROW(make_grid(3, 3, 1.0, NodeId{4}, std::nullopt),
               std::invalid_argument);
  EXPECT_THROW(make_grid(3, 3, 1.0, std::nullopt, NodeId{0}),
               std::invalid_argument);
}

TEST(GridTopologyTest, RejectsNodeCountOverflowingNodeId) {
  // 46341^2 = 2147488281 just exceeds the 2^31-1 NodeId range; the old
  // 32-bit multiply wrapped (undefined behaviour) before the Graph
  // constructor could see anything wrong. The check must fire before any
  // allocation is attempted.
  EXPECT_THROW(make_grid(46341, 46341, 1.0, std::nullopt, std::nullopt),
               std::invalid_argument);
  EXPECT_THROW(make_grid(1 << 16, 1 << 16, 1.0, std::nullopt, std::nullopt),
               std::invalid_argument);
}

TEST(LineTopologyTest, PathShape) {
  const Topology topology = make_line(6);
  EXPECT_EQ(topology.graph.edge_count(), 5u);
  EXPECT_EQ(topology.source, 0);
  EXPECT_EQ(topology.sink, 5);
  EXPECT_EQ(topology.graph.degree(0), 1u);
  EXPECT_EQ(topology.graph.degree(3), 2u);
  EXPECT_THROW(make_line(1), std::invalid_argument);
}

TEST(RingTopologyTest, CycleShape) {
  const Topology topology = make_ring(8);
  EXPECT_EQ(topology.graph.edge_count(), 8u);
  for (NodeId n = 0; n < 8; ++n) {
    EXPECT_EQ(topology.graph.degree(n), 2u);
  }
  EXPECT_EQ(topology.sink, 4);
  EXPECT_THROW(make_ring(2), std::invalid_argument);
}

TEST(LineTopologyTest, SourceSinkAtOppositeEndsWithSpacedPositions) {
  const Topology topology = make_line(5, 2.0);
  EXPECT_EQ(topology.source, 0);
  EXPECT_EQ(topology.sink, 4);
  EXPECT_EQ(hop_distance(topology.graph, topology.source, topology.sink), 4);
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_DOUBLE_EQ(topology.positions[static_cast<std::size_t>(n)].x,
                     2.0 * n);
    EXPECT_DOUBLE_EQ(topology.positions[static_cast<std::size_t>(n)].y, 0.0);
  }
}

TEST(RingTopologyTest, SourceSinkMaximallySeparated) {
  // Source at node 0, sink diametrically opposite (n/2), so the walk
  // distance around the cycle is the same in both directions (odd rings
  // differ by one hop).
  for (int n : {3, 8, 9}) {
    const Topology topology = make_ring(n);
    EXPECT_EQ(topology.source, 0) << "n=" << n;
    EXPECT_EQ(topology.sink, n / 2) << "n=" << n;
    EXPECT_EQ(hop_distance(topology.graph, topology.source, topology.sink),
              n / 2)
        << "n=" << n;
  }
}

TEST(UnitDiskTopologyTest, GeneratesConnectedGraph) {
  UnitDiskParams params;
  params.node_count = 60;
  params.area_side = 60.0;
  params.radio_range = 14.0;
  params.seed = 7;
  const Topology topology = make_random_unit_disk(params);
  EXPECT_EQ(topology.graph.node_count(), 60);
  EXPECT_TRUE(is_connected(topology.graph));
  EXPECT_NE(topology.source, topology.sink);
}

TEST(UnitDiskTopologyTest, DeterministicForSeed) {
  UnitDiskParams params;
  params.node_count = 40;
  params.area_side = 40.0;
  params.radio_range = 12.0;
  params.seed = 11;
  const Topology a = make_random_unit_disk(params);
  const Topology b = make_random_unit_disk(params);
  EXPECT_EQ(a.graph.edge_count(), b.graph.edge_count());
  EXPECT_EQ(a.source, b.source);
  EXPECT_EQ(a.sink, b.sink);
  // Placements are bit-identical for a fixed seed (the generators feed
  // the deterministic sweep engine, so "roughly the same" is not enough)
  // and every edge agrees, not just the count.
  ASSERT_EQ(a.positions.size(), b.positions.size());
  for (std::size_t i = 0; i < a.positions.size(); ++i) {
    EXPECT_EQ(a.positions[i].x, b.positions[i].x) << i;
    EXPECT_EQ(a.positions[i].y, b.positions[i].y) << i;
  }
  for (NodeId u = 0; u < params.node_count; ++u) {
    for (NodeId v = 0; v < params.node_count; ++v) {
      EXPECT_EQ(a.graph.has_edge(u, v), b.graph.has_edge(u, v))
          << u << "-" << v;
    }
  }
  // A different seed virtually never reproduces the same placement.
  params.seed = 12;
  const Topology c = make_random_unit_disk(params);
  EXPECT_NE(a.positions[0].x, c.positions[0].x);
}

TEST(UnitDiskTopologyTest, ImpossibleRangeThrows) {
  UnitDiskParams params;
  params.node_count = 50;
  params.area_side = 1000.0;
  params.radio_range = 1.0;  // almost surely disconnected
  params.max_attempts = 3;
  try {
    (void)make_random_unit_disk(params);
    FAIL() << "expected max_attempts exhaustion to throw";
  } catch (const std::runtime_error& error) {
    // The diagnostic names the attempt budget so the operator knows which
    // knob to raise.
    EXPECT_NE(std::string(error.what()).find("3 attempts"),
              std::string::npos)
        << error.what();
  }
}

TEST(UnitDiskTopologyTest, EdgesAreExactlyThePairsWithinRange) {
  // The edge set is the pair scan's: {a, b} iff the squared distance of
  // the placed doubles is <= r^2, whatever order the CSR rows are built in.
  UnitDiskParams params;
  params.node_count = 50;
  params.area_side = 50.0;
  params.radio_range = 13.0;
  params.seed = 3;
  const Topology topology = make_random_unit_disk(params);
  const double range_sq = params.radio_range * params.radio_range;
  std::size_t within = 0;
  for (NodeId a = 0; a < params.node_count; ++a) {
    for (NodeId b = 0; b < params.node_count; ++b) {
      const auto& pa = topology.positions[static_cast<std::size_t>(a)];
      const auto& pb = topology.positions[static_cast<std::size_t>(b)];
      const double dx = pa.x - pb.x;
      const double dy = pa.y - pb.y;
      const bool in_range = a != b && dx * dx + dy * dy <= range_sq;
      within += in_range && a < b ? 1 : 0;
      EXPECT_EQ(topology.graph.has_edge(a, b), in_range) << a << "-" << b;
    }
  }
  EXPECT_EQ(topology.graph.edge_count(), within);
}

TEST(UnitDiskTopologyTest, InvalidParamsRejected) {
  UnitDiskParams params;
  params.node_count = 1;
  EXPECT_THROW(make_random_unit_disk(params), std::invalid_argument);
  params.node_count = 10;
  params.radio_range = -1.0;
  EXPECT_THROW(make_random_unit_disk(params), std::invalid_argument);
}

}  // namespace
}  // namespace slpdas::wsn
