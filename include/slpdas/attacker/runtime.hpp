// Simulator-embedded eavesdropper (the executable form of paper Figure 1).
//
// The attacker is NOT a protocol participant: it owns no graph node and
// sends nothing. It overhears the medium from its current location — it can
// hear any transmission by the co-located node or a 1-hop neighbour of its
// location, subject to the same radio model as everyone else — and moves
// per its (R, H, M, s0, D) parameters. Only data-phase messages (type
// name "NORMAL") are traced — Section VI-C: the attacker
// reacts to the source's traffic pattern, not to setup control traffic.
// Capturing the source stops the simulation: the capture-ratio
// experiments need nothing after a capture.
// The runtime is protocol-agnostic: it traces by message-type name, so the
// same eavesdropper hunts TDMA DAS traffic and phantom-routing traffic.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "slpdas/attacker/model.hpp"
#include "slpdas/mac/frame.hpp"
#include "slpdas/sim/simulator.hpp"

namespace slpdas::attacker {

class AttackerRuntime final : public sim::TransmissionObserver {
 public:
  /// `params.start` must be a valid node of `simulator`'s graph. The
  /// attacker captures `source` when it reaches that node's location. The
  /// frame config is used to detect TDMA period boundaries (the paper's
  /// attacker knows the period length). The runtime registers itself as an
  /// observer of `simulator`; it must outlive the run.
  AttackerRuntime(sim::Simulator& simulator, const mac::FrameConfig& frame,
                  AttackerParams params, wsn::NodeId source);

  /// Begins eavesdropping at time `at` (typically source activation).
  void activate(sim::SimTime at);

  /// Rewinds every per-run field to its just-constructed value so the same
  /// runtime instance (still registered as an observer) can serve the next
  /// seed of a batched cell. Configuration (params, frame) persists; D is a
  /// stateless value, so nothing inside it needs rewinding.
  void reset_run();

  [[nodiscard]] bool active() const noexcept { return active_; }
  [[nodiscard]] wsn::NodeId location() const noexcept { return location_; }
  [[nodiscard]] bool captured() const noexcept { return captured_.has_value(); }
  /// Time of capture (absolute sim time); nullopt if the source is safe.
  [[nodiscard]] std::optional<sim::SimTime> capture_time() const noexcept {
    return captured_;
  }
  /// Locations visited, in order, starting with s0 (for trace analysis and
  /// the VerifySchedule cross-validation tests).
  [[nodiscard]] const std::vector<wsn::NodeId>& trail() const noexcept {
    return trail_;
  }
  [[nodiscard]] int moves_made() const noexcept {
    return static_cast<int>(trail_.size()) - 1;
  }

  /// True iff a transmission by `from` is within the attacker's range:
  /// `from` is the current location or one of its graph neighbours (the
  /// radio draw then decides whether it is actually heard). One bit test:
  /// the range is kept as a per-node bitmap, updated on every move.
  [[nodiscard]] bool in_range(wsn::NodeId from) const noexcept {
    const auto node = static_cast<std::size_t>(from);
    return ((in_range_[node >> 6] >> (node & 63)) & 1u) != 0;
  }

  // sim::TransmissionObserver
  void on_transmission(wsn::NodeId from, const sim::Message& message,
                       sim::SimTime at) override;

  /// The sender slot an eavesdropper infers from an arrival time: the
  /// attacker knows the frame layout, so the offset within the TDMA
  /// period maps to a data slot. Returns mac::kNoSlot for arrivals inside
  /// the dissemination window and for any inference outside the frame's
  /// [1, slot_count] slot range — a degenerate or mismatched frame (e.g.
  /// a non-positive slot period) must yield "slot unknown", never a slot
  /// number the schedule cannot contain.
  [[nodiscard]] static mac::SlotId infer_sender_slot(
      const mac::FrameConfig& frame, sim::SimTime at) noexcept;

 private:
  void maybe_decide();
  void roll_period(sim::SimTime at);
  /// Moves to `location`, clearing the old location's range bits and
  /// setting the new one's: O(degree) per move.
  void move_to(wsn::NodeId location);
  /// Sets (or clears) the range bits of location_ and its neighbours.
  void mark_range(bool set);

  sim::Simulator& simulator_;
  mac::FrameConfig frame_;
  AttackerParams params_;
  wsn::NodeId source_;

  bool active_ = false;
  sim::SimTime activated_at_ = 0;
  wsn::NodeId location_ = wsn::kNoNode;
  std::vector<std::uint64_t> in_range_;  // bit n: see in_range()
  std::vector<HeardMessage> messages_;     // msgs
  int moves_this_period_ = 0;              // moves
  std::deque<wsn::NodeId> history_;        // history (bounded by H)
  std::int64_t current_period_ = -1;
  std::optional<sim::SimTime> captured_;
  std::vector<wsn::NodeId> trail_;
};

}  // namespace slpdas::attacker
