#include "slpdas/wsn/graph.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace slpdas::wsn {

Graph::Graph(NodeId node_count, const std::vector<Edge>& edges)
    : node_count_(node_count) {
  if (node_count < 0) {
    throw std::invalid_argument("Graph: negative node count");
  }
  const auto nodes = static_cast<std::size_t>(node_count);
  offsets_.assign(nodes + 1, 0);
  for (const auto& [a, b] : edges) {
    check_node(a);
    check_node(b);
    if (a == b) {
      throw std::invalid_argument("Graph: self loop at node " +
                                  std::to_string(a));
    }
    ++offsets_[static_cast<std::size_t>(a) + 1];
    ++offsets_[static_cast<std::size_t>(b) + 1];
  }
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());

  // Rows first in edge-list order...
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  std::vector<NodeId> unsorted(2 * edges.size());
  for (const auto& [a, b] : edges) {
    unsorted[cursor[static_cast<std::size_t>(a)]++] = b;
    unsorted[cursor[static_cast<std::size_t>(b)]++] = a;
  }
  // ...then transposed: walking the rows in ascending node order appends
  // each node to its neighbours' rows in ascending order, and the graph is
  // symmetric, so the transpose is the same graph with every row sorted.
  std::copy(offsets_.begin(), offsets_.end() - 1, cursor.begin());
  targets_.resize(unsorted.size());
  for (std::size_t a = 0; a < nodes; ++a) {
    for (std::size_t e = offsets_[a]; e < offsets_[a + 1]; ++e) {
      targets_[cursor[static_cast<std::size_t>(unsorted[e])]++] =
          static_cast<NodeId>(a);
    }
  }
  for (std::size_t a = 0; a < nodes; ++a) {
    for (std::size_t e = offsets_[a] + 1; e < offsets_[a + 1]; ++e) {
      if (targets_[e] == targets_[e - 1]) {
        throw std::invalid_argument("Graph: duplicate edge {" +
                                    std::to_string(a) + ", " +
                                    std::to_string(targets_[e]) + "}");
      }
    }
  }
  // Reverse links, by the same argument: as `a` ascends, it is the next
  // entry of each neighbour's sorted row, so a per-row cursor is its
  // position there.
  std::fill(cursor.begin(), cursor.end(), 0);
  reverse_.resize(targets_.size());
  for (std::size_t a = 0; a < nodes; ++a) {
    for (std::size_t e = offsets_[a]; e < offsets_[a + 1]; ++e) {
      reverse_[e] = static_cast<std::uint32_t>(
          cursor[static_cast<std::size_t>(targets_[e])]++);
    }
  }
}

void Graph::throw_out_of_range(NodeId node) const {
  throw std::out_of_range("Graph: node id " + std::to_string(node) +
                          " out of range [0, " +
                          std::to_string(node_count()) + ")");
}

bool Graph::has_edge(NodeId a, NodeId b) const {
  check_node(b);
  const std::span<const NodeId> row = neighbors(a);
  return std::binary_search(row.begin(), row.end(), b);
}

std::vector<NodeId> Graph::two_hop_neighborhood(NodeId node) const {
  check_node(node);
  std::vector<NodeId> result;
  for (NodeId one_hop : neighbors(node)) {
    result.push_back(one_hop);
    for (NodeId two_hop : neighbors(one_hop)) {
      if (two_hop != node) {
        result.push_back(two_hop);
      }
    }
  }
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

std::vector<NodeId> Graph::nodes() const {
  std::vector<NodeId> ids(static_cast<std::size_t>(node_count()));
  std::iota(ids.begin(), ids.end(), NodeId{0});
  return ids;
}

std::string Graph::to_string() const {
  return "Graph(V=" + std::to_string(node_count()) +
         ", E=" + std::to_string(edge_count()) + ")";
}

}  // namespace slpdas::wsn
