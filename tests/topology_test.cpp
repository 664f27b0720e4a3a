// Tests for topology generators, especially the paper's evaluation grids
// (Section VI-A: 11x11 / 15x15 / 21x21, source top-left, sink centre,
// horizontal/vertical links only).
#include "slpdas/wsn/topology.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "slpdas/rng.hpp"
#include "slpdas/wsn/paths.hpp"
#include "test_util.hpp"

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
  const Graph& graph = topology.graph;
  EXPECT_FALSE(test::has_edge(graph, grid_node(5, 0, 0), grid_node(5, 1, 1)));
  EXPECT_TRUE(test::has_edge(graph, grid_node(5, 0, 0), grid_node(5, 1, 0)));
  EXPECT_TRUE(test::has_edge(graph, grid_node(5, 0, 0), grid_node(5, 0, 1)));
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
      EXPECT_EQ(test::has_edge(a.graph, u, v), test::has_edge(b.graph, u, v))
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
      EXPECT_EQ(test::has_edge(topology.graph, a, b), in_range)
          << a << "-" << b;
    }
  }
  EXPECT_EQ(topology.graph.edge_count(), within);
}

/// The O(n^2) pair scan the cell grid replaced, kept as its reference:
/// every pair a < b whose squared distance is <= r^2, in (a, b) order.
std::vector<Edge> pair_scan_edges(const std::vector<Position>& positions,
                                  double radio_range) {
  const double range_sq = radio_range * radio_range;
  std::vector<Edge> edges;
  for (std::size_t a = 0; a < positions.size(); ++a) {
    for (std::size_t b = a + 1; b < positions.size(); ++b) {
      const double dx = positions[a].x - positions[b].x;
      const double dy = positions[a].y - positions[b].y;
      if (dx * dx + dy * dy <= range_sq) {
        edges.emplace_back(static_cast<NodeId>(a), static_cast<NodeId>(b));
      }
    }
  }
  return edges;
}

std::vector<Edge> sorted(std::vector<Edge> edges) {
  std::sort(edges.begin(), edges.end());
  return edges;
}

TEST(UnitDiskTopologyTest, CellGridFindsExactlyThePairScanEdges) {
  struct Case {
    int nodes;
    double area;
    double range;
  };
  // Ranges from a small fraction of the area up to beyond it (one cell).
  for (const Case c : {Case{2, 10.0, 1.0}, Case{50, 100.0, 15.0},
                       Case{200, 100.0, 10.0}, Case{150, 60.0, 6.0},
                       Case{300, 1000.0, 7.0}, Case{80, 50.0, 50.0},
                       Case{120, 30.0, 35.0}, Case{64, 8.0, 1.0}}) {
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
      // The placement make_random_unit_disk draws.
      Rng rng(seed);
      std::vector<Position> positions(static_cast<std::size_t>(c.nodes));
      for (auto& position : positions) {
        position = {rng.uniform_double() * c.area,
                    rng.uniform_double() * c.area};
      }
      EXPECT_EQ(sorted(unit_disk_edges(positions, c.area, c.range).first),
                pair_scan_edges(positions, c.range))
          << c.nodes << " nodes, area " << c.area << ", r " << c.range
          << ", seed " << seed;
    }
  }
}

TEST(UnitDiskTopologyTest, CellGridFindsPairsAcrossCellBorders) {
  // Points on the borders of the cells (area 100, r 10: nine cells of
  // 100/9 m a side), one range inside and outside them, on the area's
  // edges and just beyond: pairs at exactly the range, and pairs whose
  // coordinates round across a border, must all be found.
  const double area = 100.0;
  const double range = 10.0;
  std::vector<double> coordinates;
  for (int k = 0; k <= 10; ++k) {
    const double border = k * area / 9.0;
    for (double c : {border, border - range, border + range,
                     std::nextafter(border, 0.0), k * range}) {
      coordinates.push_back(c);
    }
  }
  coordinates.push_back(-0.5);
  coordinates.push_back(std::nextafter(area, 0.0));
  std::vector<Position> positions;
  for (std::size_t i = 0; i < coordinates.size(); ++i) {
    for (std::size_t j = 0; j < coordinates.size(); j += 3) {
      positions.push_back({coordinates[i], coordinates[(i + j) %
                                                       coordinates.size()]});
    }
  }
  const std::vector<Edge> expected = pair_scan_edges(positions, range);
  EXPECT_GT(expected.size(), positions.size());
  EXPECT_EQ(sorted(unit_disk_edges(positions, area, range).first), expected);
}

/// The cell unit_disk_edges files `position` under: row-major over the
/// per_side x per_side grid it lays over the area, clamped to the grid.
std::size_t cell_of(const Position& position, std::size_t nodes, double area,
                    double range) {
  const double fit = std::floor(area / (range * (1.0 + 1e-9)));
  const double cap = std::floor(std::sqrt(static_cast<double>(nodes)));
  const auto per_side =
      static_cast<std::size_t>(std::max(1.0, std::min(fit, cap)));
  const double side = area / static_cast<double>(per_side);
  const auto index = [&](double coordinate) {
    const double cell = std::floor(coordinate / side);
    return static_cast<std::size_t>(
        std::clamp(cell, 0.0, static_cast<double>(per_side - 1)));
  };
  return index(position.y) * per_side + index(position.x);
}

TEST(UnitDiskTopologyTest, RankIsACellMajorPermutation) {
  for (const auto& [nodes, area, range] :
       {std::tuple{50, 100.0, 15.0}, std::tuple{200, 100.0, 10.0},
        std::tuple{300, 1000.0, 7.0}, std::tuple{80, 50.0, 50.0},
        std::tuple{64, 8.0, 1.0}}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      Rng rng(seed);
      std::vector<Position> positions(static_cast<std::size_t>(nodes));
      for (auto& position : positions) {
        position = {rng.uniform_double() * area, rng.uniform_double() * area};
      }
      const std::vector<NodeId> rank =
          unit_disk_edges(positions, area, range).second;
      ASSERT_EQ(rank.size(), positions.size());
      std::vector<NodeId> by_rank(positions.size(), kNoNode);
      for (std::size_t id = 0; id < rank.size(); ++id) {
        ASSERT_TRUE(rank[id] >= 0 && rank[id] < nodes) << rank[id];
        ASSERT_EQ(by_rank[static_cast<std::size_t>(rank[id])], kNoNode)
            << "rank " << rank[id] << " given twice";
        by_rank[static_cast<std::size_t>(rank[id])] = static_cast<NodeId>(id);
      }
      // Along the rank the cell never decreases, and within a cell the
      // ids ascend.
      for (std::size_t r = 1; r < by_rank.size(); ++r) {
        const auto previous = static_cast<std::size_t>(by_rank[r - 1]);
        const auto current = static_cast<std::size_t>(by_rank[r]);
        const std::size_t previous_cell =
            cell_of(positions[previous], positions.size(), area, range);
        const std::size_t cell =
            cell_of(positions[current], positions.size(), area, range);
        EXPECT_LE(previous_cell, cell) << "rank " << r << ", seed " << seed;
        if (previous_cell == cell) {
          EXPECT_LT(previous, current) << "rank " << r << ", seed " << seed;
        }
      }
    }
  }
}

TEST(UnitDiskTopologyTest, RankIsTheIdentityOnGridLineAndRing) {
  for (const Topology& topology :
       {make_grid(7), make_grid(5, 9, 1.0, std::nullopt, std::nullopt),
        make_line(12), make_ring(11)}) {
    const auto ranks = topology.graph.ranks();
    std::vector<NodeId> identity(ranks.size());
    std::iota(identity.begin(), identity.end(), NodeId{0});
    EXPECT_EQ(std::vector<NodeId>(ranks.begin(), ranks.end()), identity)
        << topology.graph.to_string();
  }
}

TEST(UnitDiskTopologyTest, PairAtExactlyTheRangeIsLinked) {
  // 3-4-5 triangles: squared distances of exactly 25 = 5^2, within a cell
  // and across a vertical and a horizontal cell border (area 20, five
  // nodes: two 10-m cells a side).
  const std::vector<Position> positions{
      {7.0, 1.0}, {10.0, 5.0}, {14.0, 8.0}, {3.0, 8.0}, {6.0, 12.0}};
  EXPECT_EQ(sorted(unit_disk_edges(positions, 20.0, 5.0).first),
            (std::vector<Edge>{{0, 1}, {1, 2}, {3, 4}}));
  EXPECT_EQ(pair_scan_edges(positions, 5.0),
            (std::vector<Edge>{{0, 1}, {1, 2}, {3, 4}}));
}

TEST(UnitDiskTopologyTest, NodeAtTheAreaSideIsClampedIntoTheLastCell) {
  // Four nodes get two 50-m cells a side. Node 0 sits on the far corner,
  // coordinate area_side on both axes, one past the last cell: it is filed
  // into that cell, beside node 2, so it keeps its link and ranks just
  // before node 2, after the other two cells' nodes.
  const double area = 100.0;
  const std::vector<Position> positions{
      {area, area}, {0.0, 0.0}, {area - 3.0, area - 3.0}, {60.0, 10.0}};
  const auto [edges, rank] = unit_disk_edges(positions, area, 10.0);
  EXPECT_EQ(sorted(edges), (std::vector<Edge>{{0, 2}}));
  EXPECT_EQ(rank, (std::vector<NodeId>{2, 0, 3, 1}));
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
