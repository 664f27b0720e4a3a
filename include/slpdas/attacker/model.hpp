// The paper's (R, H, M, s0, D)-attacker model (Section III-B, Figure 1).
//
// A distributed eavesdropper parameterised by:
//   R  — messages it can capture before it must decide a move,
//   H  — length of its visited-location memory,
//   M  — moves it may make per TDMA period,
//   s0 — starting location (conventionally the sink),
//   D  — decision function mapping (captured messages, history) to the
//        next location.
//
// D is a value: one of four named strategies, applied by decide(). The
// classic attacker of most SLP work — and the one the paper evaluates
// (Section VI-C) — is (1, 0, 1, sink, first-heard): move to the sender of
// the first message heard each period.
#pragma once

#include <deque>
#include <optional>
#include <string_view>
#include <vector>

#include "slpdas/mac/schedule.hpp"
#include "slpdas/rng.hpp"
#include "slpdas/wsn/graph.hpp"

namespace slpdas::attacker {

/// One captured message, as the decision function sees it: who sent it and
/// in which TDMA slot the sender transmits. (The paper's attacker "knows
/// the period length", so slot positions are observable from timing.)
struct HeardMessage {
  wsn::NodeId sender = wsn::kNoNode;
  mac::SlotId sender_slot = mac::kNoSlot;
};

/// The attacker's decision function D.
enum class Decision {
  /// The sender of the first captured message — with R = 1 this is the
  /// classic panda-hunter attacker.
  kFirstHeard,
  /// The captured sender with the smallest slot (the earliest
  /// transmitter), ties broken by lower id.
  kMinSlot,
  /// Like kMinSlot, but never re-enters one of the H most recently
  /// visited locations unless every captured sender is one of them — an
  /// attacker that cannot be parked on a decoy dead end forever.
  kHistoryAvoiding,
  /// A uniformly random captured sender (a weak, baseline attacker).
  kRandom,
};

/// Every Decision, in declaration order.
inline constexpr Decision kDecisions[] = {
    Decision::kFirstHeard, Decision::kMinSlot, Decision::kHistoryAvoiding,
    Decision::kRandom};

/// The stable name of `decision` ("first-heard", "min-slot",
/// "history-avoiding", "random"), as spec strings and reports print it.
[[nodiscard]] const char* to_string(Decision decision) noexcept;

/// The Decision named `name` (exactly as to_string prints it), or nullopt.
[[nodiscard]] std::optional<Decision> parse_decision(std::string_view name);

/// Applies D to the messages captured since the last move (|messages| <= R)
/// and the H most recent locations. Returns kNoNode ("stay") when nothing
/// was captured, else the sender of one of the captured messages — the
/// attacker can only move toward a transmission it actually heard, one hop
/// at a time. Only kRandom draws from `rng`.
[[nodiscard]] wsn::NodeId decide(Decision decision,
                                 const std::vector<HeardMessage>& messages,
                                 const std::deque<wsn::NodeId>& history,
                                 Rng& rng);

/// The full parameter tuple.
struct AttackerParams {
  int messages_per_move = 1;  ///< R
  int history_size = 0;       ///< H
  int moves_per_period = 1;   ///< M
  wsn::NodeId start = wsn::kNoNode;  ///< s0 (default: the sink)
  Decision decision = Decision::kFirstHeard;  ///< D

  /// Throws std::invalid_argument on R < 1, H < 0 or M < 1.
  void validate() const;
};

}  // namespace slpdas::attacker
