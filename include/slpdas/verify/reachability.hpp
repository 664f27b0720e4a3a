// Attacker reachability analysis.
//
// Generalises VerifySchedule from one source to all nodes: for every node
// v, the minimum number of periods an (R, H, M, s0, D)-attacker needs to
// reach v under Algorithm 1's trace semantics. This answers deployment
// questions the single-source verifier cannot: which nodes are exposed
// within a given safety period, how large the protected region around a
// prospective source is, and how a refinement reshapes the exposed set.
// It runs verify_schedule's 0-1 BFS with no source to stop at, so every
// node's period here equals min_capture_period with that node as source.
#pragma once

#include <vector>

#include "slpdas/mac/schedule.hpp"
#include "slpdas/verify/verify_schedule.hpp"
#include "slpdas/wsn/graph.hpp"

namespace slpdas::verify {

struct ReachabilityResult {
  /// Per node: minimum periods to reach it, or kUnreachablePeriod.
  std::vector<int> min_periods;

  static constexpr int kUnreachablePeriod = -1;

  /// Nodes reachable within `delta` periods (ascending id).
  [[nodiscard]] std::vector<wsn::NodeId> reached_within(int delta) const;
};

/// Computes minimum reach periods for every node, bounded by `period_cap`
/// (nodes needing more periods report kUnreachablePeriod).
[[nodiscard]] ReachabilityResult attacker_reachability(
    const wsn::Graph& graph, const mac::Schedule& schedule,
    const VerifyAttacker& attacker, int period_cap);

}  // namespace slpdas::verify
