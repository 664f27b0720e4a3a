#include "slpdas/wsn/topology.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "slpdas/rng.hpp"
#include "slpdas/wsn/paths.hpp"

namespace slpdas::wsn {

namespace {

double squared_distance(const Position& a, const Position& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

/// Index of the cell of side `cell_side` holding `coordinate`, clamped to
/// [0, cells): clamping keeps the index monotone in the coordinate, so two
/// coordinates at most one cell side apart still land at most one apart.
std::size_t cell_index(double coordinate, double cell_side,
                       std::size_t cells) {
  const double cell = coordinate / cell_side;
  if (!(cell >= 1.0)) {  // also NaN
    return 0;
  }
  if (cell >= static_cast<double>(cells)) {
    return cells - 1;
  }
  return static_cast<std::size_t>(cell);
}

}  // namespace

std::pair<std::vector<Edge>, std::vector<NodeId>> unit_disk_edges(
    const std::vector<Position>& positions, double area_side,
    double radio_range) {
  // Cells per side: as many as fit at the range's width, less a margin
  // that absorbs the rounding of coordinate / side, and at most about one
  // cell per node so a sparse placement in a huge area stays small.
  const std::size_t nodes = positions.size();
  const double fit = std::floor(area_side / (radio_range * (1.0 + 1e-9)));
  const double cap = std::floor(std::sqrt(static_cast<double>(nodes)));
  const auto per_side =
      static_cast<std::size_t>(std::max(1.0, std::min(fit, cap)));
  const double side = area_side / static_cast<double>(per_side);

  // Counting sort of the nodes by cell, ascending ids within each cell.
  // A node's slot in that order is its rank, and the scan below reads
  // ids and coordinates copied into it.
  std::vector<std::size_t> cell_of(nodes);
  std::vector<std::size_t> start(per_side * per_side + 1, 0);
  for (std::size_t node = 0; node < nodes; ++node) {
    cell_of[node] = cell_index(positions[node].y, side, per_side) * per_side +
                    cell_index(positions[node].x, side, per_side);
    ++start[cell_of[node] + 1];
  }
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<std::size_t> cursor(start.begin(), start.end() - 1);
  std::vector<NodeId> rank(nodes);
  std::vector<NodeId> ids(nodes);
  std::vector<double> xs(nodes);
  std::vector<double> ys(nodes);
  for (std::size_t node = 0; node < nodes; ++node) {
    const std::size_t slot = cursor[cell_of[node]]++;
    rank[node] = static_cast<NodeId>(slot);
    ids[slot] = static_cast<NodeId>(node);
    xs[slot] = positions[node].x;
    ys[slot] = positions[node].y;
  }

  // A pair within range lies in the same or adjacent cells, so pairing
  // each cell with itself and its four forward neighbours (the next cell
  // of its row and the three beside it in the next row) tests every such
  // pair once. Each candidate is written, and kept by advancing the count
  // when it is in range.
  const double range_sq = radio_range * radio_range;
  std::vector<Edge> edges;
  std::size_t count = 0;
  const auto pair_cells = [&](std::size_t a, std::size_t b) {
    const std::size_t need = count + (start[a + 1] - start[a]) *
                                         (start[b + 1] - start[b]);
    if (edges.size() < need) {
      edges.resize(need);  // grows the capacity geometrically
    }
    for (std::size_t i = start[a]; i < start[a + 1]; ++i) {
      for (std::size_t j = a == b ? i + 1 : start[b]; j < start[b + 1];
           ++j) {
        const double dx = xs[i] - xs[j];
        const double dy = ys[i] - ys[j];
        edges[count] = std::minmax(ids[i], ids[j]);
        count += dx * dx + dy * dy <= range_sq ? 1 : 0;
      }
    }
  };
  for (std::size_t cy = 0; cy < per_side; ++cy) {
    for (std::size_t cx = 0; cx < per_side; ++cx) {
      const std::size_t cell = cy * per_side + cx;
      pair_cells(cell, cell);
      if (cx + 1 < per_side) {
        pair_cells(cell, cell + 1);
      }
      if (cy + 1 < per_side) {
        const std::size_t below = cell + per_side;
        if (cx > 0) {
          pair_cells(cell, below - 1);
        }
        pair_cells(cell, below);
        if (cx + 1 < per_side) {
          pair_cells(cell, below + 1);
        }
      }
    }
  }
  edges.resize(count);
  return {std::move(edges), std::move(rank)};
}

Topology make_grid(int side, double spacing) {
  if (side < 3 || side % 2 == 0) {
    throw std::invalid_argument(
        "make_grid: side must be odd and >= 3 so a centre sink exists, got " +
        std::to_string(side));
  }
  return make_grid(side, side, spacing, std::nullopt, std::nullopt);
}

Topology make_grid(int width, int height, double spacing,
                   std::optional<NodeId> source, std::optional<NodeId> sink) {
  if (width < 1 || height < 1) {
    throw std::invalid_argument("make_grid: non-positive dimensions");
  }
  if (spacing <= 0.0) {
    throw std::invalid_argument("make_grid: non-positive spacing");
  }
  // The node count must be computed in 64 bits: width * height can
  // overflow NodeId (a signed 32-bit multiply is undefined behaviour)
  // long before the Graph constructor could notice anything wrong.
  const std::int64_t node_count =
      static_cast<std::int64_t>(width) * static_cast<std::int64_t>(height);
  if (node_count > static_cast<std::int64_t>(
                       std::numeric_limits<NodeId>::max())) {
    throw std::invalid_argument(
        "make_grid: " + std::to_string(width) + "x" + std::to_string(height) +
        " grid exceeds the NodeId range");
  }
  Topology topology;
  topology.positions.resize(static_cast<std::size_t>(node_count));
  std::vector<Edge> edges;
  edges.reserve(2 * static_cast<std::size_t>(node_count));
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      const NodeId id = grid_node(width, x, y);
      topology.positions[static_cast<std::size_t>(id)] = {x * spacing,
                                                          y * spacing};
      if (x + 1 < width) {
        edges.emplace_back(id, grid_node(width, x + 1, y));
      }
      if (y + 1 < height) {
        edges.emplace_back(id, grid_node(width, x, y + 1));
      }
    }
  }
  topology.graph = Graph(static_cast<NodeId>(node_count), edges);
  topology.source = source.value_or(grid_node(width, 0, 0));
  topology.sink = sink.value_or(grid_node(width, width / 2, height / 2));
  if (!topology.graph.contains(topology.source) ||
      !topology.graph.contains(topology.sink)) {
    throw std::invalid_argument("make_grid: source/sink out of range");
  }
  if (topology.source == topology.sink) {
    // A convergecast whose asset sits on the base station is degenerate:
    // the attacker starts captured and no delivery ever crosses a link.
    throw std::invalid_argument(
        "make_grid: source and sink must be distinct nodes");
  }
  return topology;
}

Topology make_line(int node_count, double spacing) {
  if (node_count < 2) {
    throw std::invalid_argument("make_line: need at least 2 nodes");
  }
  Topology topology;
  topology.positions.resize(static_cast<std::size_t>(node_count));
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(node_count));
  for (int i = 0; i < node_count; ++i) {
    topology.positions[static_cast<std::size_t>(i)] = {i * spacing, 0.0};
    if (i + 1 < node_count) {
      edges.emplace_back(i, i + 1);
    }
  }
  topology.graph = Graph(node_count, edges);
  topology.source = 0;
  topology.sink = node_count - 1;
  return topology;
}

Topology make_ring(int node_count, double spacing) {
  if (node_count < 3) {
    throw std::invalid_argument("make_ring: need at least 3 nodes");
  }
  Topology topology;
  topology.positions.resize(static_cast<std::size_t>(node_count));
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(node_count));
  const double radius =
      spacing * static_cast<double>(node_count) / (2.0 * 3.14159265358979323846);
  for (int i = 0; i < node_count; ++i) {
    const double angle =
        2.0 * 3.14159265358979323846 * static_cast<double>(i) / node_count;
    topology.positions[static_cast<std::size_t>(i)] = {
        radius * std::cos(angle), radius * std::sin(angle)};
    edges.emplace_back(i, (i + 1) % node_count);
  }
  topology.graph = Graph(node_count, edges);
  topology.source = 0;
  topology.sink = node_count / 2;
  return topology;
}

Topology make_random_unit_disk(const UnitDiskParams& params) {
  if (params.node_count < 2) {
    throw std::invalid_argument("make_random_unit_disk: need >= 2 nodes");
  }
  if (params.area_side <= 0.0 || params.radio_range <= 0.0) {
    throw std::invalid_argument(
        "make_random_unit_disk: non-positive area or range");
  }
  Rng rng(params.seed);
  for (int attempt = 0; attempt < params.max_attempts; ++attempt) {
    Topology topology;
    topology.positions.resize(static_cast<std::size_t>(params.node_count));
    for (auto& position : topology.positions) {
      position = {rng.uniform_double() * params.area_side,
                  rng.uniform_double() * params.area_side};
    }
    auto [edges, rank] = unit_disk_edges(
        topology.positions, params.area_side, params.radio_range);
    topology.graph = Graph(params.node_count, edges, std::move(rank));
    if (!is_connected(topology.graph)) {
      continue;
    }
    // Source and sink derive from the seeded placement alone (lowest id
    // breaks distance ties), so a spec's (n, area, r, seed) fully
    // determines the experiment: sink = node closest to the area centre,
    // source = node farthest from the sink AMONG the others — the scan
    // skips the sink, which with n >= 2 guarantees source != sink.
    const Position centre{params.area_side / 2.0, params.area_side / 2.0};
    NodeId best_sink = 0;
    double best_sink_distance = squared_distance(topology.positions[0], centre);
    for (NodeId node = 1; node < params.node_count; ++node) {
      const double distance =
          squared_distance(topology.positions[static_cast<std::size_t>(node)], centre);
      if (distance < best_sink_distance) {
        best_sink = node;
        best_sink_distance = distance;
      }
    }
    topology.sink = best_sink;
    NodeId best_source = best_sink == 0 ? 1 : 0;
    double best_source_distance = -1.0;
    for (NodeId node = 0; node < params.node_count; ++node) {
      if (node == best_sink) {
        continue;
      }
      const double distance = squared_distance(
          topology.positions[static_cast<std::size_t>(node)],
          topology.positions[static_cast<std::size_t>(best_sink)]);
      if (distance > best_source_distance) {
        best_source = node;
        best_source_distance = distance;
      }
    }
    topology.source = best_source;
    if (topology.source == topology.sink) {
      throw std::logic_error(
          "make_random_unit_disk: source == sink despite the distinct-node "
          "scan (internal invariant violated)");
    }
    return topology;
  }
  throw std::runtime_error(
      "make_random_unit_disk: no connected placement of " +
      std::to_string(params.node_count) + " nodes (area " +
      std::to_string(params.area_side) + " m, range " +
      std::to_string(params.radio_range) + " m) found after " +
      std::to_string(params.max_attempts) +
      " attempts — raise the radio range, shrink the area, or allow more "
      "attempts");
}

}  // namespace slpdas::wsn
