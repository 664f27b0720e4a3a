// Base type for all simulated radio messages.
//
// Protocol layers (das, slp, attacker probes) derive concrete message
// structs from Message. The simulator treats messages as opaque immutable
// payloads shared between all receivers of one broadcast: one staged
// MessagePtr in the event queue's slot table serves every receiver's
// delivery event, so a broadcast costs one shared_ptr copy total.
// Immutability also means a payload-free message (e.g. a HELLO beacon)
// may be built once and re-broadcast for the process's lifetime.
#pragma once

#include <memory>

namespace slpdas::sim {

struct Message {
  virtual ~Message() = default;

  /// Stable message-type name (e.g. "DISSEM", "SEARCH", "CHANGE",
  /// "NORMAL"): the key of the simulator's one send tally, which every
  /// message-overhead figure reads (Simulator::sent_of). Each class
  /// returns one static string, so the tally compares pointers.
  [[nodiscard]] virtual const char* name() const noexcept = 0;
};

/// Broadcast payloads are immutable and shared across receivers.
using MessagePtr = std::shared_ptr<const Message>;

}  // namespace slpdas::sim
