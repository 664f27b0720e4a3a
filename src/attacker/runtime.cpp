#include "slpdas/attacker/runtime.hpp"

#include <cstring>
#include <stdexcept>

namespace slpdas::attacker {

namespace {

/// The one message type the eavesdropper traces. Compared by text: each
/// protocol family defines its own kName array for it.
constexpr const char* kTracedType = "NORMAL";

}  // namespace

AttackerRuntime::AttackerRuntime(sim::Simulator& simulator,
                                 const mac::FrameConfig& frame,
                                 AttackerParams params, wsn::NodeId source)
    : simulator_(simulator),
      frame_(frame),
      params_(std::move(params)),
      source_(source) {
  params_.validate();
  if (params_.start == wsn::kNoNode || !simulator.graph().contains(params_.start)) {
    throw std::invalid_argument("AttackerRuntime: invalid start location");
  }
  if (!simulator.graph().contains(source)) {
    throw std::invalid_argument("AttackerRuntime: invalid source");
  }
  in_range_.assign((simulator.graph().node_count() + 63) / 64, 0);
  location_ = params_.start;
  mark_range(true);
  simulator.add_observer(this);
}

void AttackerRuntime::move_to(wsn::NodeId location) {
  mark_range(false);
  location_ = location;
  mark_range(true);
}

void AttackerRuntime::mark_range(bool set) {
  const auto mark = [&](wsn::NodeId node) {
    const auto index = static_cast<std::size_t>(node);
    const std::uint64_t bit = std::uint64_t{1} << (index & 63);
    if (set) {
      in_range_[index >> 6] |= bit;
    } else {
      in_range_[index >> 6] &= ~bit;
    }
  };
  mark(location_);
  for (const wsn::NodeId neighbor : simulator_.graph().neighbors(location_)) {
    mark(neighbor);
  }
}

void AttackerRuntime::reset_run() {
  active_ = false;
  activated_at_ = 0;
  move_to(params_.start);
  messages_.clear();
  moves_this_period_ = 0;
  history_.clear();
  current_period_ = -1;
  captured_.reset();
  trail_.clear();
}

void AttackerRuntime::activate(sim::SimTime at) {
  active_ = true;
  activated_at_ = at;
  trail_.clear();
  trail_.push_back(location_);
  messages_.clear();
  moves_this_period_ = 0;
  current_period_ = -1;
}

void AttackerRuntime::roll_period(sim::SimTime at) {
  // NextP:: in Figure 1 — the attacker knows the period length and resets
  // its per-period message buffer and move budget at every boundary.
  const std::int64_t period = frame_.period_of(at);
  if (period != current_period_) {
    current_period_ = period;
    messages_.clear();
    moves_this_period_ = 0;
  }
}

void AttackerRuntime::on_transmission(wsn::NodeId from,
                                      const sim::Message& message,
                                      sim::SimTime at) {
  if (!active_ || captured_ || at < activated_at_) {
    return;
  }
  // The eavesdropper traces data traffic only (by message-type name, so it
  // works against any protocol whose payload traffic is labelled NORMAL).
  if (std::strcmp(message.name(), kTracedType) != 0) {
    return;
  }
  roll_period(at);

  // Audibility: co-located or 1-hop from the current location, through the
  // same radio model as any other receiver.
  if (!in_range(from)) {
    return;
  }
  if (from != location_ && !simulator_.radio_delivered(from, location_, at)) {
    return;
  }

  // ARcv:: — buffer up to R messages.
  if (static_cast<int>(messages_.size()) < params_.messages_per_move) {
    messages_.push_back(HeardMessage{from, infer_sender_slot(frame_, at)});
  }
  maybe_decide();
}

mac::SlotId AttackerRuntime::infer_sender_slot(const mac::FrameConfig& frame,
                                               sim::SimTime at) noexcept {
  // Guard the period arithmetic itself: a frame with a non-positive slot
  // period (or an overflowed period) has no well-defined slot timeline.
  if (frame.slot_period <= 0 || frame.period() <= 0) {
    return mac::kNoSlot;
  }
  // The sender's slot is observable from the arrival time within the
  // period (the attacker knows the frame layout).
  const sim::SimTime offset = at - frame.period_start(frame.period_of(at));
  if (offset < frame.dissem_period) {
    return mac::kNoSlot;  // dissemination window carries no data slots
  }
  const std::int64_t slot = (offset - frame.dissem_period) / frame.slot_period + 1;
  // Clamp inferences past the frame's last data slot (or below slot 1) to
  // "unknown" — feeding an out-of-range SlotId to the decision function
  // would skew min-slot-style attackers toward phantom transmitters.
  if (slot < 1 || slot > static_cast<std::int64_t>(frame.slot_count)) {
    return mac::kNoSlot;
  }
  return static_cast<mac::SlotId>(slot);
}

void AttackerRuntime::maybe_decide() {
  // Decide:: — once R messages are buffered and the move budget allows,
  // relocate to D(msgs, history).
  if (static_cast<int>(messages_.size()) < params_.messages_per_move ||
      moves_this_period_ >= params_.moves_per_period) {
    return;
  }
  const wsn::NodeId next =
      decide(params_.decision, messages_, history_, simulator_.rng());
  messages_.clear();
  if (next == wsn::kNoNode || next == location_) {
    return;
  }
  if (params_.history_size > 0) {
    history_.push_back(location_);
    while (static_cast<int>(history_.size()) > params_.history_size) {
      history_.pop_front();
    }
  }
  move_to(next);
  ++moves_this_period_;
  trail_.push_back(location_);
  if (location_ == source_) {
    captured_ = simulator_.now();
    simulator_.stop();
  }
}

}  // namespace slpdas::attacker
