#include "slpdas/attacker/model.hpp"

#include <algorithm>
#include <stdexcept>

namespace slpdas::attacker {

namespace {

/// Earliest slot first, then lower id.
bool earlier(const HeardMessage& a, const HeardMessage& b) {
  if (a.sender_slot != b.sender_slot) return a.sender_slot < b.sender_slot;
  return a.sender < b.sender;
}

}  // namespace

const char* to_string(Decision decision) noexcept {
  switch (decision) {
    case Decision::kFirstHeard:
      return "first-heard";
    case Decision::kMinSlot:
      return "min-slot";
    case Decision::kHistoryAvoiding:
      return "history-avoiding";
    case Decision::kRandom:
      return "random";
  }
  return "unknown";
}

std::optional<Decision> parse_decision(std::string_view name) {
  for (const Decision decision : kDecisions) {
    if (name == to_string(decision)) {
      return decision;
    }
  }
  return std::nullopt;
}

wsn::NodeId decide(Decision decision, const std::vector<HeardMessage>& messages,
                   const std::deque<wsn::NodeId>& history, Rng& rng) {
  if (messages.empty()) {
    return wsn::kNoNode;
  }
  switch (decision) {
    case Decision::kFirstHeard:
      return messages.front().sender;
    case Decision::kMinSlot:
      return std::min_element(messages.begin(), messages.end(), earlier)
          ->sender;
    case Decision::kHistoryAvoiding: {
      // The earliest sender not among the last H locations; when every
      // sender was visited, the earliest of them all.
      const auto visited = [&history](const HeardMessage& message) {
        return std::find(history.begin(), history.end(), message.sender) !=
               history.end();
      };
      return std::min_element(messages.begin(), messages.end(),
                              [&visited](const HeardMessage& a,
                                         const HeardMessage& b) {
                                if (visited(a) != visited(b)) {
                                  return visited(b);
                                }
                                return earlier(a, b);
                              })
          ->sender;
    }
    case Decision::kRandom:
      return messages[rng.pick_index(messages.size())].sender;
  }
  return wsn::kNoNode;
}

void AttackerParams::validate() const {
  if (messages_per_move < 1) {
    throw std::invalid_argument("AttackerParams: R must be >= 1");
  }
  if (history_size < 0) {
    throw std::invalid_argument("AttackerParams: H must be >= 0");
  }
  if (moves_per_period < 1) {
    throw std::invalid_argument("AttackerParams: M must be >= 1");
  }
}

}  // namespace slpdas::attacker
