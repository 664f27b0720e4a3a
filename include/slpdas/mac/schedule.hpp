// TDMA slot assignments.
//
// A Schedule maps every node to the slot in which it may transmit. Slots
// fire in increasing numeric order within a TDMA frame, so "n transmits
// before m" is exactly "slot(n) < slot(m)". In the paper's Phase 1 the
// sink takes the largest slot (Delta, Table I's `slots` = 100) and each
// child takes a slot strictly smaller than its parent's, which yields the
// sender sets <sigma_1 ... sigma_l> of Definitions 2/3 when grouped by
// slot value.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "slpdas/wsn/graph.hpp"

namespace slpdas::mac {

/// A TDMA slot number. Phase 3 refinement only ever decrements slots, so
/// values below 1 are representable (and flagged by validity checks).
using SlotId = std::int32_t;

/// Sentinel: node has no slot yet (the paper's `slot = bottom`).
inline constexpr SlotId kNoSlot = std::numeric_limits<SlotId>::min();

class Schedule {
 public:
  Schedule() = default;

  /// A schedule for `node_count` nodes, all initially unassigned.
  explicit Schedule(wsn::NodeId node_count);

  [[nodiscard]] wsn::NodeId node_count() const noexcept {
    return static_cast<wsn::NodeId>(slots_.size());
  }

  [[nodiscard]] bool assigned(wsn::NodeId node) const;
  [[nodiscard]] SlotId slot(wsn::NodeId node) const;
  void set_slot(wsn::NodeId node, SlotId slot);

  /// Number of nodes with an assigned slot.
  [[nodiscard]] wsn::NodeId assigned_count() const noexcept;

  /// True iff every node has a slot.
  [[nodiscard]] bool complete() const noexcept;

  /// Smallest / largest assigned slot. Throws std::logic_error when no node
  /// is assigned.
  [[nodiscard]] SlotId min_slot() const;
  [[nodiscard]] SlotId max_slot() const;

  [[nodiscard]] bool operator==(const Schedule& other) const = default;

 private:
  void check_node(wsn::NodeId node) const;

  std::vector<SlotId> slots_;
};

}  // namespace slpdas::mac
