// Schedule summary statistics and diffs: the shape of a slot assignment
// (for comparing schedulers) and the nodes whose slot moved between two
// schedules (for seeing what a phase changed).
#pragma once

#include <vector>

#include "slpdas/mac/schedule.hpp"

namespace slpdas::mac {

/// Aggregate shape of a slot assignment, for schedule-quality comparisons
/// between schedulers (e.g. the paper's top-down assignment vs the
/// bottom-up first-fit baseline).
struct ScheduleStats {
  wsn::NodeId assigned = 0;
  SlotId min_slot = 0;
  SlotId max_slot = 0;
  /// Number of distinct slot values in use (the DAS latency in slots:
  /// frames complete after the last used slot).
  int distinct_slots = 0;
  /// max_slot - min_slot + 1: the band the assignment occupies.
  int span = 0;
  /// assigned / span: 1.0 means every slot in the band is used by exactly
  /// one sender set; higher density = more spatial slot reuse.
  double density = 0.0;
};

/// Computes stats over the assigned nodes; throws std::logic_error when no
/// node is assigned.
[[nodiscard]] ScheduleStats compute_stats(const Schedule& schedule);

/// One node's slot movement between two schedules (kNoSlot = unassigned).
struct SlotChange {
  wsn::NodeId node = wsn::kNoNode;
  SlotId before = kNoSlot;
  SlotId after = kNoSlot;

  [[nodiscard]] bool operator==(const SlotChange&) const = default;
};

/// Nodes whose assignment differs between `before` and `after`, ascending
/// by node id. Throws std::invalid_argument on size mismatch. Used to see
/// exactly which nodes Phase 3 touched.
[[nodiscard]] std::vector<SlotChange> diff_schedules(const Schedule& before,
                                                     const Schedule& after);

}  // namespace slpdas::mac
