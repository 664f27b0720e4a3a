// Shortest-path machinery over the WSN graph.
//
// Definitions 2 and 3 (strong/weak DAS) quantify over neighbours "on a
// shortest path to the sink"; the safety period (Section VI-B) is derived
// from the source-sink hop distance; VerifySchedule bounds attacker traces
// by graph distance. All of those reduce to BFS on the unweighted link
// graph, implemented here.
#pragma once

#include <vector>

#include "slpdas/wsn/graph.hpp"

namespace slpdas::wsn {

/// Distance value for unreachable vertices.
inline constexpr int kUnreachable = -1;

/// BFS hop distances from `origin` to every vertex; kUnreachable where no
/// path exists.
[[nodiscard]] std::vector<int> bfs_distances(const Graph& graph, NodeId origin);

/// Hop distance between two vertices (kUnreachable if disconnected).
[[nodiscard]] int hop_distance(const Graph& graph, NodeId a, NodeId b);

/// True iff every vertex is reachable from every other.
[[nodiscard]] bool is_connected(const Graph& graph);

/// For every vertex n, the set of neighbours m such that some shortest path
/// n -> m -> ... -> `sink` exists, i.e. dist(m, sink) == dist(n, sink) - 1.
/// This is exactly the "m in N, n.m...S is a shortest path" quantification
/// of Definition 2. Entry for the sink itself is empty.
[[nodiscard]] std::vector<std::vector<NodeId>> shortest_path_parents(
    const Graph& graph, NodeId sink);

}  // namespace slpdas::wsn
