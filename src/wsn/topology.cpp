#include "slpdas/wsn/topology.hpp"

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "slpdas/rng.hpp"
#include "slpdas/wsn/paths.hpp"

namespace slpdas::wsn {

namespace {

double squared_distance(const Position& a, const Position& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

}  // namespace

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
  topology.graph = Graph(static_cast<NodeId>(node_count));
  topology.positions.resize(static_cast<std::size_t>(node_count));
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      const NodeId id = grid_node(width, x, y);
      topology.positions[static_cast<std::size_t>(id)] = {x * spacing,
                                                          y * spacing};
      if (x + 1 < width) {
        topology.graph.add_edge(id, grid_node(width, x + 1, y));
      }
      if (y + 1 < height) {
        topology.graph.add_edge(id, grid_node(width, x, y + 1));
      }
    }
  }
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
  topology.graph = Graph(node_count);
  topology.positions.resize(static_cast<std::size_t>(node_count));
  for (int i = 0; i < node_count; ++i) {
    topology.positions[static_cast<std::size_t>(i)] = {i * spacing, 0.0};
    if (i + 1 < node_count) {
      topology.graph.add_edge(i, i + 1);
    }
  }
  topology.source = 0;
  topology.sink = node_count - 1;
  return topology;
}

Topology make_ring(int node_count, double spacing) {
  if (node_count < 3) {
    throw std::invalid_argument("make_ring: need at least 3 nodes");
  }
  Topology topology;
  topology.graph = Graph(node_count);
  topology.positions.resize(static_cast<std::size_t>(node_count));
  const double radius =
      spacing * static_cast<double>(node_count) / (2.0 * 3.14159265358979323846);
  for (int i = 0; i < node_count; ++i) {
    const double angle =
        2.0 * 3.14159265358979323846 * static_cast<double>(i) / node_count;
    topology.positions[static_cast<std::size_t>(i)] = {
        radius * std::cos(angle), radius * std::sin(angle)};
    topology.graph.add_edge(i, (i + 1) % node_count);
  }
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
  const double range_sq = params.radio_range * params.radio_range;
  for (int attempt = 0; attempt < params.max_attempts; ++attempt) {
    Topology topology;
    topology.graph = Graph(params.node_count);
    topology.positions.resize(static_cast<std::size_t>(params.node_count));
    for (auto& position : topology.positions) {
      position = {rng.uniform_double() * params.area_side,
                  rng.uniform_double() * params.area_side};
    }
    for (NodeId a = 0; a < params.node_count; ++a) {
      for (NodeId b = a + 1; b < params.node_count; ++b) {
        if (squared_distance(topology.positions[static_cast<std::size_t>(a)],
                             topology.positions[static_cast<std::size_t>(b)]) <=
            range_sq) {
          topology.graph.add_edge(a, b);
        }
      }
    }
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
