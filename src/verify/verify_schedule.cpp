#include "slpdas/verify/verify_schedule.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <stdexcept>
#include <tuple>

#include "slpdas/verify/reachability.hpp"

namespace slpdas::verify {

namespace {

/// Attacker configuration invariant across a search.
struct Search {
  const wsn::Graph& graph;
  const mac::Schedule& schedule;
  const VerifyAttacker& attacker;
  wsn::NodeId source;  ///< where the search stops; kNoNode explores all
  int delta;           ///< the last period a trace may use
};

/// Mutable attacker state; period is tracked outside (BFS layer / DFS arg).
using History = std::vector<wsn::NodeId>;
using StateKey = std::tuple<wsn::NodeId, int, History>;  // (loc, moves, hist)

History push_history(const History& history, wsn::NodeId location,
                     int capacity) {
  if (capacity <= 0) {
    return {};
  }
  History next = history;
  next.push_back(location);
  while (static_cast<int>(next.size()) > capacity) {
    next.erase(next.begin());
  }
  return next;
}

/// H as the search tracks it: only the history-avoiding D reads history.
int history_capacity(const VerifyAttacker& attacker) {
  return attacker.policy == DPolicy::kHistoryAvoidingMinSlot
             ? attacker.history_size
             : 0;
}

/// Candidate next locations allowed by D given B and the history.
std::vector<wsn::NodeId> allowed_moves(const Search& search,
                                       wsn::NodeId location,
                                       const History& history) {
  const std::vector<wsn::NodeId> heard = lowest_slot_neighbors(
      search.graph, search.schedule, location, search.attacker.messages_per_move);
  if (heard.empty()) {
    return {};
  }
  switch (search.attacker.policy) {
    case DPolicy::kMinSlot:
      // lowest_slot_neighbors returns ascending slot order.
      return {heard.front()};
    case DPolicy::kAnyHeard:
      return heard;
    case DPolicy::kHistoryAvoidingMinSlot: {
      for (wsn::NodeId candidate : heard) {
        if (std::find(history.begin(), history.end(), candidate) ==
            history.end()) {
          return {candidate};
        }
      }
      return heard;  // everything heard was visited: fall back to all of B
    }
  }
  return {};
}

/// Period cost of stepping location -> next (Algorithm 1 lines 10-12):
/// 1 when the destination fires earlier (wait for the next period),
/// 0 when it fires later in the same period (requires moves < M).
int step_cost(const Search& search, wsn::NodeId location, wsn::NodeId next) {
  return search.schedule.slot(location) > search.schedule.slot(next) ? 1 : 0;
}

/// What the search settled.
struct Settled {
  /// Per node: the first (so minimum) period a trace reached it in, or
  /// ReachabilityResult::kUnreachablePeriod.
  std::vector<int> first_period;
  /// The locations s0 ... source of a minimum-period capture; empty when
  /// the source was not reached.
  std::vector<wsn::NodeId> trace;
};

/// The one 0-1 BFS over (location, moves, history) states, shared by
/// verify_schedule, min_capture_period and attacker_reachability. Periods
/// are the 0/1 edge weights, so states settle in non-decreasing period
/// order: a location's first settled period is its minimum, and settling
/// the source ends the search.
Settled bfs_periods(const Search& search) {
  struct Node {
    StateKey key;
    int period;
  };
  Settled settled;
  settled.first_period.assign(
      static_cast<std::size_t>(search.graph.node_count()),
      ReachabilityResult::kUnreachablePeriod);
  // Best periods and predecessor links for trace recovery.
  std::map<StateKey, int> best;
  std::map<StateKey, StateKey> predecessor;
  const int capacity = history_capacity(search.attacker);

  const StateKey start{search.attacker.start, 0, History{}};
  std::deque<Node> queue;
  best[start] = 0;
  queue.push_back({start, 0});

  while (!queue.empty()) {
    Node current = queue.front();
    queue.pop_front();
    const auto& [location, moves, history] = current.key;
    if (current.period > best.at(current.key)) {
      continue;  // stale queue entry
    }
    int& first = settled.first_period[static_cast<std::size_t>(location)];
    if (first == ReachabilityResult::kUnreachablePeriod) {
      first = current.period;
    }
    if (location == search.source) {
      // Recover the location trace by walking predecessors.
      StateKey at = current.key;
      settled.trace.push_back(std::get<0>(at));
      while (predecessor.contains(at)) {
        at = predecessor.at(at);
        settled.trace.push_back(std::get<0>(at));
      }
      std::reverse(settled.trace.begin(), settled.trace.end());
      return settled;
    }
    if (!search.schedule.assigned(location)) {
      continue;  // silent location: the attacker hears nothing new
    }
    for (wsn::NodeId next : allowed_moves(search, location, history)) {
      const int cost = step_cost(search, location, next);
      int next_moves;
      if (cost == 1) {
        next_moves = 1;  // new period: this is the first move in it
      } else {
        if (moves >= search.attacker.moves_per_period) {
          continue;  // Algorithm 1 line 11: move budget exhausted
        }
        next_moves = moves + 1;
      }
      const int next_period = current.period + cost;
      if (next_period > search.delta) {
        continue;
      }
      StateKey next_key{next, next_moves,
                        push_history(history, location, capacity)};
      const auto it = best.find(next_key);
      if (it != best.end() && it->second <= next_period) {
        continue;
      }
      best[next_key] = next_period;
      predecessor[next_key] = current.key;
      if (cost == 0) {
        queue.push_front({std::move(next_key), next_period});
      } else {
        queue.push_back({std::move(next_key), next_period});
      }
    }
  }
  return settled;
}

/// Literal Algorithm 1: depth-first enumeration of attacker traces with a
/// visited-state set standing in for the explicit trace set P.
struct DfsEngine {
  const Search& search;
  std::map<std::tuple<wsn::NodeId, int, int, History>, bool> memo;
  std::vector<wsn::NodeId> trace;

  bool captures(wsn::NodeId location, int period, int moves,
                const History& history) {
    if (location == search.source) {
      return period <= search.delta;
    }
    if (period > search.delta || !search.schedule.assigned(location)) {
      return false;
    }
    const auto key = std::make_tuple(location, period, moves, history);
    if (const auto it = memo.find(key); it != memo.end()) {
      return it->second;
    }
    memo[key] = false;  // cycle guard
    bool found = false;
    for (wsn::NodeId next : allowed_moves(search, location, history)) {
      int next_period = period;
      int next_moves;
      if (step_cost(search, location, next) == 1) {
        next_period = period + 1;
        next_moves = 1;
      } else if (moves >= search.attacker.moves_per_period) {
        continue;
      } else {
        next_moves = moves + 1;
      }
      trace.push_back(next);
      if (captures(next, next_period, next_moves,
                   push_history(history, location,
                                history_capacity(search.attacker)))) {
        found = true;
        break;
      }
      trace.pop_back();
    }
    memo[key] = found;
    return found;
  }
};

/// `caller` prefixes every error message. Only attacker_reachability
/// searches without a source; everywhere else kNoNode is a bad source.
void validate(const Search& search, const std::string& caller,
              bool has_source = true) {
  if (has_source && !search.graph.contains(search.source)) {
    throw std::out_of_range(caller + ": source out of range");
  }
  if (!search.graph.contains(search.attacker.start)) {
    throw std::out_of_range(caller + ": attacker start out of range");
  }
  if (search.attacker.messages_per_move < 1 ||
      search.attacker.moves_per_period < 1 || search.attacker.history_size < 0) {
    throw std::invalid_argument(caller + ": invalid attacker parameters");
  }
  if (search.delta < 0) {
    throw std::invalid_argument(caller + ": negative period bound");
  }
  if (search.schedule.node_count() != search.graph.node_count()) {
    throw std::invalid_argument(caller + ": schedule/graph size mismatch");
  }
}

}  // namespace

std::string VerifyResult::to_string() const {
  if (slp_aware) {
    return "slp-aware (no capture within " + std::to_string(period) +
           " periods)";
  }
  std::string out = "captured in period " + std::to_string(period) + " via";
  for (wsn::NodeId node : counterexample) {
    out += ' ' + std::to_string(node);
  }
  return out;
}

std::vector<wsn::NodeId> lowest_slot_neighbors(const wsn::Graph& graph,
                                               const mac::Schedule& schedule,
                                               wsn::NodeId node, int count) {
  if (count < 1) {
    throw std::invalid_argument("lowest_slot_neighbors: count must be >= 1");
  }
  std::vector<wsn::NodeId> assigned;
  for (wsn::NodeId neighbor : graph.neighbors(node)) {
    if (schedule.assigned(neighbor)) {
      assigned.push_back(neighbor);
    }
  }
  std::sort(assigned.begin(), assigned.end(),
            [&schedule](wsn::NodeId a, wsn::NodeId b) {
              if (schedule.slot(a) != schedule.slot(b)) {
                return schedule.slot(a) < schedule.slot(b);
              }
              return a < b;
            });
  if (static_cast<int>(assigned.size()) > count) {
    assigned.resize(static_cast<std::size_t>(count));
  }
  return assigned;
}

VerifyResult verify_schedule(const wsn::Graph& graph,
                             const mac::Schedule& schedule,
                             const VerifyAttacker& attacker, int delta,
                             wsn::NodeId source) {
  const Search search{graph, schedule, attacker, source, delta};
  validate(search, "verify_schedule");
  Settled settled = bfs_periods(search);
  VerifyResult result;
  result.slp_aware = settled.trace.empty();
  result.period = result.slp_aware
                      ? delta
                      : settled.first_period[static_cast<std::size_t>(source)];
  result.counterexample = std::move(settled.trace);
  return result;
}

VerifyResult verify_schedule_exhaustive(const wsn::Graph& graph,
                                        const mac::Schedule& schedule,
                                        const VerifyAttacker& attacker,
                                        int delta, wsn::NodeId source) {
  const Search search{graph, schedule, attacker, source, delta};
  validate(search, "verify_schedule");
  DfsEngine engine{search, {}, {attacker.start}};
  VerifyResult result;
  if (engine.captures(attacker.start, 0, 0, History{})) {
    result.slp_aware = false;
    result.counterexample = engine.trace;
    // The DFS finds some capturing trace; count its period cost exactly.
    int period = 0;
    for (std::size_t i = 0; i + 1 < engine.trace.size(); ++i) {
      if (schedule.slot(engine.trace[i]) > schedule.slot(engine.trace[i + 1])) {
        ++period;
      }
    }
    result.period = period;
  } else {
    result.slp_aware = true;
    result.period = delta;
  }
  return result;
}

std::optional<int> min_capture_period(const wsn::Graph& graph,
                                      const mac::Schedule& schedule,
                                      const VerifyAttacker& attacker,
                                      wsn::NodeId source, int period_cap) {
  const Search search{graph, schedule, attacker, source, period_cap};
  validate(search, "min_capture_period");
  const int period =
      bfs_periods(search).first_period[static_cast<std::size_t>(source)];
  if (period == ReachabilityResult::kUnreachablePeriod) {
    return std::nullopt;
  }
  return period;
}

ReachabilityResult attacker_reachability(const wsn::Graph& graph,
                                         const mac::Schedule& schedule,
                                         const VerifyAttacker& attacker,
                                         int period_cap) {
  const Search search{graph, schedule, attacker, wsn::kNoNode, period_cap};
  validate(search, "attacker_reachability", /*has_source=*/false);
  return {bfs_periods(search).first_period};
}

std::vector<wsn::NodeId> ReachabilityResult::reached_within(int delta) const {
  std::vector<wsn::NodeId> nodes;
  for (wsn::NodeId node = 0;
       node < static_cast<wsn::NodeId>(min_periods.size()); ++node) {
    const int periods = min_periods[static_cast<std::size_t>(node)];
    if (periods != kUnreachablePeriod && periods <= delta) {
      nodes.push_back(node);
    }
  }
  return nodes;
}

}  // namespace slpdas::verify
