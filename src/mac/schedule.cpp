#include "slpdas/mac/schedule.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace slpdas::mac {

Schedule::Schedule(wsn::NodeId node_count) {
  if (node_count < 0) {
    throw std::invalid_argument("Schedule: negative node count");
  }
  slots_.assign(static_cast<std::size_t>(node_count), kNoSlot);
}

void Schedule::check_node(wsn::NodeId node) const {
  if (node < 0 || node >= node_count()) {
    throw std::out_of_range("Schedule: node " + std::to_string(node) +
                            " out of range");
  }
}

bool Schedule::assigned(wsn::NodeId node) const {
  check_node(node);
  return slots_[static_cast<std::size_t>(node)] != kNoSlot;
}

SlotId Schedule::slot(wsn::NodeId node) const {
  check_node(node);
  return slots_[static_cast<std::size_t>(node)];
}

void Schedule::set_slot(wsn::NodeId node, SlotId slot) {
  check_node(node);
  if (slot == kNoSlot) {
    throw std::invalid_argument("Schedule::set_slot: kNoSlot is reserved");
  }
  slots_[static_cast<std::size_t>(node)] = slot;
}

wsn::NodeId Schedule::assigned_count() const noexcept {
  return static_cast<wsn::NodeId>(
      std::count_if(slots_.begin(), slots_.end(),
                    [](SlotId s) { return s != kNoSlot; }));
}

bool Schedule::complete() const noexcept {
  return assigned_count() == node_count();
}

SlotId Schedule::min_slot() const {
  SlotId best = kNoSlot;
  for (SlotId s : slots_) {
    if (s != kNoSlot && (best == kNoSlot || s < best)) {
      best = s;
    }
  }
  if (best == kNoSlot) {
    throw std::logic_error("Schedule::min_slot: no assigned slots");
  }
  return best;
}

SlotId Schedule::max_slot() const {
  SlotId best = kNoSlot;
  for (SlotId s : slots_) {
    if (s != kNoSlot && (best == kNoSlot || s > best)) {
      best = s;
    }
  }
  if (best == kNoSlot) {
    throw std::logic_error("Schedule::max_slot: no assigned slots");
  }
  return best;
}

}  // namespace slpdas::mac
