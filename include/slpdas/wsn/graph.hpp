// Undirected graph model of a wireless sensor network.
//
// The paper (Section III-A) models a WSN as an undirected graph G = (V, E):
// vertices are sensor nodes, edges are bidirectional communication links.
// Definition 1 (non-colliding slot) additionally needs the 2-hop
// neighbourhood CG(n): every node reachable in at most two hops, excluding
// n itself.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace slpdas::wsn {

/// Identifier of a WSN node. Nodes of a graph with n vertices are always
/// numbered 0 .. n-1.
using NodeId = std::int32_t;

/// Sentinel for "no node" (unassigned parent, unreached vertex, ...).
inline constexpr NodeId kNoNode = -1;

/// One undirected edge {first, second}, in either orientation.
using Edge = std::pair<NodeId, NodeId>;

/// An immutable undirected graph in compressed sparse row (CSR) form: one
/// offset per vertex into one array of neighbour ids, built once from an
/// edge list.
///
/// Adjacency rows are sorted so that neighbour iteration order is
/// deterministic, which keeps every simulation and schedule reproducible
/// for a given seed. Beside each row sits its reverse links: for the k-th
/// neighbour b of a, the position of a in b's row. The simulator hands a
/// reception its link that way, so a receiver finds per-sender state
/// without a search.
///
/// The graph also carries a spatial `rank`: a permutation of the ids under
/// which nearby nodes sit close together. Ids keep their meaning
/// everywhere; the rank only lays out per-node tables that cover a
/// neighbourhood (the DAS Ninfo window), so such a table spans few ranks
/// even where ids follow placement order. Grid, line and ring ids are
/// already spatial, and their rank is the identity; a unit-disk rank is
/// cell-major (see unit_disk_edges).
class Graph {
 public:
  Graph() = default;

  /// Creates a graph with `node_count` vertices, the undirected `edges`
  /// (in any order and orientation) and the spatial `rank` (rank[id];
  /// empty is the identity). An out-of-range id throws std::out_of_range;
  /// a self loop, a duplicate edge or a rank that is not a permutation of
  /// 0 .. node_count-1 throws std::invalid_argument, as none occurs in a
  /// WSN link graph.
  explicit Graph(NodeId node_count, const std::vector<Edge>& edges = {},
                 std::vector<NodeId> rank = {});

  /// Number of vertices.
  [[nodiscard]] NodeId node_count() const noexcept { return node_count_; }

  /// Number of undirected edges.
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return targets_.size() / 2;
  }

  /// True iff `node` is a valid vertex id of this graph.
  [[nodiscard]] bool contains(NodeId node) const noexcept {
    return node >= 0 && node < node_count_;
  }

  /// Sorted 1-hop neighbourhood of `node`.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId node) const {
    check_node(node);
    const auto row = static_cast<std::size_t>(node);
    return {targets_.data() + offsets_[row],
            offsets_[row + 1] - offsets_[row]};
  }

  /// Reverse links of `node`'s row, parallel to neighbors(node): for
  /// b = neighbors(node)[k], neighbors(b)[reverse_links(node)[k]] == node.
  [[nodiscard]] std::span<const std::uint32_t> reverse_links(
      NodeId node) const {
    check_node(node);
    const auto row = static_cast<std::size_t>(node);
    return {reverse_.data() + offsets_[row],
            offsets_[row + 1] - offsets_[row]};
  }

  /// Degree of `node`.
  [[nodiscard]] std::size_t degree(NodeId node) const {
    return neighbors(node).size();
  }

  /// Every node's spatial rank, indexed by id.
  [[nodiscard]] std::span<const NodeId> ranks() const noexcept {
    return rank_;
  }

  /// Every node's closed-neighbourhood rank bounds, indexed by id: the min
  /// and max rank over the node and its neighbours.
  [[nodiscard]] std::span<const std::pair<NodeId, NodeId>> rank_bounds()
      const noexcept {
    return rank_bounds_;
  }

  /// CG(n) from Definition 1: the sorted set of nodes within two hops of
  /// `node`, excluding `node` itself.
  [[nodiscard]] std::vector<NodeId> two_hop_neighborhood(NodeId node) const;

  /// All vertex ids 0 .. node_count()-1 (convenience for range-for loops).
  [[nodiscard]] std::vector<NodeId> nodes() const;

  /// Human-readable summary, e.g. "Graph(V=121, E=220)".
  [[nodiscard]] std::string to_string() const;

 private:
  void check_node(NodeId node) const {
    if (!contains(node)) {
      throw_out_of_range(node);
    }
  }
  [[noreturn]] void throw_out_of_range(NodeId node) const;
  [[noreturn]] void throw_not_a_permutation() const;

  NodeId node_count_ = 0;
  /// Row `a` is targets_[offsets_[a], offsets_[a + 1]); offsets_ is
  /// empty only in a default-constructed graph.
  std::vector<std::size_t> offsets_;
  std::vector<NodeId> targets_;
  /// reverse_[e] for the directed edge e = (a, targets_[e]): the position
  /// of a in targets_[e]'s row.
  std::vector<std::uint32_t> reverse_;
  /// rank_[a]: a's spatial rank. rank_bounds_[a]: the min and max of
  /// rank_ over a and its row.
  std::vector<NodeId> rank_;
  std::vector<std::pair<NodeId, NodeId>> rank_bounds_;
};

}  // namespace slpdas::wsn
