// VerifySchedule — the paper's Algorithm 1.
//
// Decides whether a TDMA slot assignment is delta-SLP-aware for a source S
// against a (R, H, M, s0, D)-attacker (Definition 6): it is, iff NO valid
// attacker trace reaches S within delta periods. When a capturing trace
// exists the procedure returns it as a counterexample, analogous to a
// model checker's violating trace.
//
// Trace semantics (Algorithm 1, lines 6-16):
//  * From location n the attacker can only step to a 1-hop neighbour that
//    is among B = the R lowest-slot neighbours of n (the R messages heard
//    first in a period) and permitted by D.
//  * Stepping to an EARLIER slot (S(n) > S(n')) means waiting for the next
//    period (that transmission already fired this period): period += 1,
//    moves := 1.
//  * Stepping to a LATER slot chains within the same period, bounded by M.
//  * Capture iff the source is reached with period <= delta.
//
// Two interchangeable engines are provided:
//  * verify_schedule            — 0-1 BFS over attacker states; finds the
//                                 minimum-period capture, polynomial time.
//                                 min_capture_period and
//                                 attacker_reachability (reachability.hpp)
//                                 run the same search.
//  * verify_schedule_exhaustive — literal Algorithm 1: depth-first
//                                 enumeration of all attacker traces.
// Property tests assert they always agree; benchmarks compare their cost.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "slpdas/mac/schedule.hpp"
#include "slpdas/wsn/graph.hpp"

namespace slpdas::verify {

/// How the decision function D constrains the attacker inside B (the R
/// earliest-transmitting audible neighbours).
enum class DPolicy {
  kMinSlot,    ///< deterministic: always the earliest transmitter in B
  kAnyHeard,   ///< nondeterministic: any member of B (worst-case attacker)
  kHistoryAvoidingMinSlot,  ///< earliest transmitter not visited in the
                            ///< last H steps; falls back to all of B
};

/// Attacker parameters as Algorithm 1 consumes them.
struct VerifyAttacker {
  int messages_per_move = 1;  ///< R
  int history_size = 0;       ///< H (only used by history-avoiding D)
  int moves_per_period = 1;   ///< M
  wsn::NodeId start = wsn::kNoNode;  ///< s0
  DPolicy policy = DPolicy::kMinSlot;
};

/// Outcome of VerifySchedule. Mirrors the paper's
/// (boolean, violating sequence, period) triple.
struct VerifyResult {
  bool slp_aware = true;  ///< True = (True, bottom, delta); no capture
  /// The paper's pc: attacker locations s0 ... S. Empty when slp_aware.
  std::vector<wsn::NodeId> counterexample;
  /// Periods consumed: capture period when !slp_aware, else delta.
  int period = 0;

  [[nodiscard]] std::string to_string() const;
};

/// Algorithm 1 via 0-1 BFS (period-optimal). `delta` is the safety period
/// in TDMA periods. Unassigned nodes never transmit and are never entered.
[[nodiscard]] VerifyResult verify_schedule(const wsn::Graph& graph,
                                           const mac::Schedule& schedule,
                                           const VerifyAttacker& attacker,
                                           int delta, wsn::NodeId source);

/// Literal Algorithm 1: enumerate attacker traces depth-first with
/// memoisation. Exponentially slower constants; used to cross-validate the
/// BFS engine.
[[nodiscard]] VerifyResult verify_schedule_exhaustive(
    const wsn::Graph& graph, const mac::Schedule& schedule,
    const VerifyAttacker& attacker, int delta, wsn::NodeId source);

/// Minimum number of periods any valid trace needs to capture `source`
/// (capture time delta^G_{P,A} of Definition 4, in periods), capped at
/// `period_cap`; nullopt if no trace captures within the cap.
[[nodiscard]] std::optional<int> min_capture_period(
    const wsn::Graph& graph, const mac::Schedule& schedule,
    const VerifyAttacker& attacker, wsn::NodeId source, int period_cap);

/// The R lowest-slot assigned 1-hop neighbours of `node` (Algorithm 1 line
/// 7's 1HopNsWithRLowestSlots). Exposed for tests.
[[nodiscard]] std::vector<wsn::NodeId> lowest_slot_neighbors(
    const wsn::Graph& graph, const mac::Schedule& schedule, wsn::NodeId node,
    int count);

}  // namespace slpdas::verify
