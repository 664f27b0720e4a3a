#include "slpdas/mac/render.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace slpdas::mac {

namespace {

bool contains(const std::vector<NodeId>& nodes, NodeId node) {
  return std::find(nodes.begin(), nodes.end(), node) != nodes.end();
}

}  // namespace

std::string render_grid_ascii(const Topology& topology, int width, int height,
                              const Schedule* schedule,
                              const std::vector<NodeId>& highlight) {
  if (static_cast<NodeId>(width) * height != topology.graph.node_count()) {
    throw std::invalid_argument(
        "render_grid_ascii: dimensions do not match node count");
  }
  std::ostringstream out;
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      const NodeId node = wsn::grid_node(width, x, y);
      if (x != 0) {
        out << ' ';
      }
      if (schedule != nullptr) {
        std::string cell = schedule->assigned(node)
                               ? std::to_string(schedule->slot(node))
                               : std::string("-");
        if (node == topology.source) {
          cell += "S";
        } else if (node == topology.sink) {
          cell += "K";
        } else if (contains(highlight, node)) {
          cell += "*";
        }
        out << cell;
        // Pad to width 4 for alignment.
        for (std::size_t pad = cell.size(); pad < 4; ++pad) {
          out << ' ';
        }
      } else if (node == topology.source) {
        out << 'S';
      } else if (node == topology.sink) {
        out << 'K';
      } else if (contains(highlight, node)) {
        out << '#';
      } else {
        out << '.';
      }
    }
    out << '\n';
  }
  return out.str();
}

}  // namespace slpdas::mac
