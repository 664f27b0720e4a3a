#include "slpdas/wsn/paths.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace slpdas::wsn {

std::vector<int> bfs_distances(const Graph& graph, NodeId origin) {
  if (!graph.contains(origin)) {
    throw std::out_of_range("bfs_distances: origin out of range");
  }
  std::vector<int> distance(static_cast<std::size_t>(graph.node_count()),
                            kUnreachable);
  std::queue<NodeId> frontier;
  distance[static_cast<std::size_t>(origin)] = 0;
  frontier.push(origin);
  while (!frontier.empty()) {
    const NodeId at = frontier.front();
    frontier.pop();
    const int next_distance = distance[static_cast<std::size_t>(at)] + 1;
    for (NodeId next : graph.neighbors(at)) {
      if (distance[static_cast<std::size_t>(next)] == kUnreachable) {
        distance[static_cast<std::size_t>(next)] = next_distance;
        frontier.push(next);
      }
    }
  }
  return distance;
}

int hop_distance(const Graph& graph, NodeId a, NodeId b) {
  const auto distances = bfs_distances(graph, a);
  if (!graph.contains(b)) {
    throw std::out_of_range("hop_distance: target out of range");
  }
  return distances[static_cast<std::size_t>(b)];
}

bool is_connected(const Graph& graph) {
  if (graph.node_count() == 0) {
    return true;
  }
  const auto distances = bfs_distances(graph, 0);
  return std::none_of(distances.begin(), distances.end(),
                      [](int d) { return d == kUnreachable; });
}

std::vector<std::vector<NodeId>> shortest_path_parents(const Graph& graph,
                                                       NodeId sink) {
  const auto distance = bfs_distances(graph, sink);
  std::vector<std::vector<NodeId>> parents(
      static_cast<std::size_t>(graph.node_count()));
  for (NodeId node = 0; node < graph.node_count(); ++node) {
    if (node == sink || distance[static_cast<std::size_t>(node)] == kUnreachable) {
      continue;
    }
    for (NodeId neighbor : graph.neighbors(node)) {
      if (distance[static_cast<std::size_t>(neighbor)] ==
          distance[static_cast<std::size_t>(node)] - 1) {
        parents[static_cast<std::size_t>(node)].push_back(neighbor);
      }
    }
  }
  return parents;
}

}  // namespace slpdas::wsn
