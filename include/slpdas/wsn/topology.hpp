// Topology generators.
//
// The paper evaluates on square grids (11x11, 15x15, 21x21) with 4.5 m node
// spacing and "only vertical and horizontal message transmission", i.e. a
// 4-connected grid graph, with the source in the top-left corner and the
// sink at the centre (Section VI-A). This header provides that topology
// plus line, ring and random unit-disk generators used by tests, examples
// and ablation benchmarks.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "slpdas/wsn/graph.hpp"

namespace slpdas::wsn {

/// 2-D position of a node (metres). Used by unit-disk generation and by
/// attacker-trace visualisation in the examples.
struct Position {
  double x = 0.0;
  double y = 0.0;
};

/// A graph together with node placement and the paper's two distinguished
/// nodes.
struct Topology {
  Graph graph;
  std::vector<Position> positions;  ///< indexed by NodeId
  NodeId source = kNoNode;          ///< asset-detecting node
  NodeId sink = kNoNode;            ///< base station / convergecast root
};

/// Builds the paper's evaluation topology: a `side` x `side` 4-connected
/// grid, `spacing` metres between neighbours (paper: 4.5 m), source at the
/// top-left node and sink at the centre node. `side` must be odd and >= 3
/// so that a centre node exists, matching the paper's 11/15/21 grids.
[[nodiscard]] Topology make_grid(int side, double spacing = 4.5);

/// Grid with explicit width/height and arbitrary source/sink corners.
/// Source defaults to node 0 (top-left), sink to the centre node.
[[nodiscard]] Topology make_grid(int width, int height, double spacing,
                                 std::optional<NodeId> source,
                                 std::optional<NodeId> sink);

/// Node id of grid coordinate (x, y) in a `width`-wide grid.
[[nodiscard]] constexpr NodeId grid_node(int width, int x, int y) noexcept {
  return static_cast<NodeId>(y * width + x);
}

/// A path graph 0 - 1 - ... - (n-1); source at node 0, sink at node n-1.
[[nodiscard]] Topology make_line(int node_count, double spacing = 4.5);

/// A cycle 0 - 1 - ... - (n-1) - 0; source at node 0, sink at node n/2.
[[nodiscard]] Topology make_ring(int node_count, double spacing = 4.5);

/// Parameters for random unit-disk graph generation.
struct UnitDiskParams {
  int node_count = 100;
  double area_side = 100.0;   ///< nodes placed uniformly in a square
  double radio_range = 15.0;  ///< link iff distance <= range
  std::uint64_t seed = 1;
  int max_attempts = 64;  ///< resample placements until connected
};

/// The unit-disk edges among `positions`: every pair {a, b}, a < b, whose
/// squared distance is <= radio_range^2, listed in no particular order
/// (Graph sorts its rows); and the cell-major rank of every node, for
/// Graph's rank. Candidate pairs come from a uniform grid of square cells
/// at least radio_range wide over [0, area_side)^2 (positions outside it
/// fall into the border cells), so a uniform placement costs O(n + edges)
/// instead of O(n^2). The rank orders the nodes by cell, row-major, and
/// by id within a cell, so nodes within range of each other get ranks
/// at most about two rows of cells apart.
[[nodiscard]] std::pair<std::vector<Edge>, std::vector<NodeId>>
unit_disk_edges(const std::vector<Position>& positions, double area_side,
                double radio_range);

/// Places nodes uniformly at random in a square and connects every pair
/// within radio range (the standard unit-disk communication model from
/// Section III-A). Resamples until the graph is connected; throws
/// std::runtime_error if `max_attempts` placements all fail. Source is the
/// node farthest from the sink; sink is the node closest to the centre.
[[nodiscard]] Topology make_random_unit_disk(const UnitDiskParams& params);

}  // namespace slpdas::wsn
