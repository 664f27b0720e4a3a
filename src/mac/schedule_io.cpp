#include "slpdas/mac/schedule_io.hpp"

#include <set>
#include <stdexcept>
#include <vector>

namespace slpdas::mac {

ScheduleStats compute_stats(const Schedule& schedule) {
  ScheduleStats stats;
  stats.assigned = schedule.assigned_count();
  if (stats.assigned == 0) {
    throw std::logic_error("compute_stats: empty schedule");
  }
  stats.min_slot = schedule.min_slot();
  stats.max_slot = schedule.max_slot();
  std::set<SlotId> distinct;
  for (wsn::NodeId node = 0; node < schedule.node_count(); ++node) {
    if (schedule.assigned(node)) {
      distinct.insert(schedule.slot(node));
    }
  }
  stats.distinct_slots = static_cast<int>(distinct.size());
  stats.span = static_cast<int>(stats.max_slot - stats.min_slot + 1);
  stats.density = static_cast<double>(stats.assigned) / stats.span;
  return stats;
}

std::vector<SlotChange> diff_schedules(const Schedule& before,
                                       const Schedule& after) {
  if (before.node_count() != after.node_count()) {
    throw std::invalid_argument("diff_schedules: size mismatch");
  }
  std::vector<SlotChange> changes;
  for (wsn::NodeId node = 0; node < before.node_count(); ++node) {
    const SlotId b = before.assigned(node) ? before.slot(node) : kNoSlot;
    const SlotId a = after.assigned(node) ? after.slot(node) : kNoSlot;
    if (b != a) {
      changes.push_back({node, b, a});
    }
  }
  return changes;
}

}  // namespace slpdas::mac
