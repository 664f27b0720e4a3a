// Phase 1 — distributed DAS slot assignment (paper Figure 2) plus the
// data-phase convergecast, forming the paper's "protectionless DAS"
// baseline protocol.
//
// Timeline of one run (all nodes share TDMA period boundaries):
//
//   periods [0, NDP)              neighbour discovery (HELLO beacons)
//   periods [NDP, MSP)            setup: dissemination, parent choice,
//                                 slot assignment, collision resolution
//   periods [MSP, ...)            data phase: every node broadcasts one
//                                 NORMAL message in its slot per period,
//                                 aggregating the newest source sequence
//                                 number it has heard (flooding + DAS)
//
// Mapping from the paper's guarded commands to this event-driven process:
//   dissem::   -> a jittered send inside each period's dissemination window
//   receiveN:: -> on_dissem() with message.normal == true
//   receiveU:: -> on_dissem() with update semantics (parent slot repair)
//   process::  -> the end-of-dissemination-window timer (parent choice and
//                 collision resolution run after "receiving all messages")
//
// The period, window-end and data-slot timers fire at instants every node
// shares, so they are frame-clock timers (Process::set_frame_timer): one
// queue event per TDMA phase instead of one per node.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "slpdas/das/messages.hpp"
#include "slpdas/mac/frame.hpp"
#include "slpdas/mac/schedule.hpp"
#include "slpdas/sim/simulator.hpp"
#include "slpdas/util/flat_set.hpp"

namespace slpdas::das {

/// Protocol parameters (paper Table I; defaults are the paper's values).
struct DasConfig {
  mac::FrameConfig frame{};         ///< slots / Pslot / Pdiss
  int neighbor_discovery_periods = 4;  ///< NDP
  int dissemination_timeout = 5;       ///< DT: dissem sends per state change
  int minimum_setup_periods = 80;      ///< MSP: data phase starts here
  mac::SlotId sink_slot = 100;         ///< Delta: sink's anchor slot

  /// When true, Phase 1 additionally enforces the STRONG DAS ordering
  /// (Definition 2): a node keeps its slot strictly below every
  /// shortest-path neighbour's, not just its chosen parent's, repairing
  /// downward whenever a closer neighbour's slot catches up with it. The
  /// paper's protocol (and the default) only guarantees weak DAS.
  bool enforce_strong_das = false;

  /// Period of one TDMA frame.
  [[nodiscard]] sim::SimTime period() const noexcept { return frame.period(); }
};

/// The paper's protectionless DAS node process. One instance per node;
/// the instance for `sink` anchors the schedule.
class ProtectionlessDas : public sim::Process {
 public:
  /// `shared_hello` optionally supplies the immutable HELLO beacon payload
  /// (one instance can serve every node of every seed, since the message
  /// is payload-free); when null the process builds its own on first use.
  ProtectionlessDas(const DasConfig& config, wsn::NodeId sink,
                    wsn::NodeId source, sim::MessagePtr shared_hello = nullptr);

  // -- observable protocol state (read by harnesses, tests, metrics) ------
  [[nodiscard]] bool slot_assigned() const noexcept {
    return slot_ != mac::kNoSlot;
  }
  [[nodiscard]] mac::SlotId slot() const noexcept { return slot_; }
  [[nodiscard]] int hop() const noexcept { return hop_; }
  [[nodiscard]] wsn::NodeId parent() const noexcept { return parent_; }
  [[nodiscard]] const util::FlatSet<wsn::NodeId>& potential_parents() const noexcept {
    return potential_parents_;
  }
  [[nodiscard]] const util::FlatSet<wsn::NodeId>& children() const noexcept {
    return children_;
  }
  /// Neighbours in DISCOVERY order (the order their first HELLO/DISSEM
  /// arrived). This ordering is load-bearing: Figure 2's rank(i, Others)
  /// ranks competitors in the order the parent lists them, which is its
  /// discovery order — randomised per run by beacon jitter. That is what
  /// makes sibling slot order (and hence the attacker's min-slot gradient)
  /// vary across runs instead of being a fixed function of node ids.
  [[nodiscard]] const std::vector<wsn::NodeId>& known_neighbors()
      const noexcept {
    return my_neighbors_;
  }
  [[nodiscard]] bool is_sink() const noexcept { return id() == sink_; }
  [[nodiscard]] bool is_source() const noexcept { return id() == source_; }
  [[nodiscard]] const DasConfig& config() const noexcept { return config_; }
  [[nodiscard]] int current_period() const noexcept { return period_index_; }

  /// Sequence number of the newest source datum this node has aggregated.
  [[nodiscard]] std::uint64_t aggregated_seq() const noexcept {
    return aggregated_seq_;
  }
  /// On the sink: number of distinct source sequence numbers received.
  [[nodiscard]] std::uint64_t delivered_count() const noexcept {
    return delivered_count_;
  }
  /// On the source: newest generated sequence number.
  [[nodiscard]] std::uint64_t generated_count() const noexcept {
    return generated_seq_;
  }
  /// On the sink: mean end-to-end aggregation latency (generation at the
  /// source to first delivery at the sink) over all delivered sequence
  /// numbers, in seconds; 0 when nothing was delivered. A correct DAS
  /// delivers within one TDMA period (children fire before parents), which
  /// tests assert against this metric.
  [[nodiscard]] double mean_delivery_latency_s() const noexcept {
    return latency_count_ == 0 ? 0.0
                               : sim::to_seconds(latency_sum_ /
                                                 static_cast<sim::SimTime>(
                                                     latency_count_));
  }
  /// On the sink: worst observed aggregation latency in seconds.
  [[nodiscard]] double max_delivery_latency_s() const noexcept {
    return sim::to_seconds(latency_max_);
  }

  // -- sim::Process --------------------------------------------------------
  void on_start() override;
  void on_message(wsn::NodeId from, const sim::Message& message) override;
  void on_timer(int timer_id) override;
  void reset_run() override;

 protected:
  enum Timer : int {
    kPeriodTimer = 1,
    kHelloTimer,
    kDissemSendTimer,
    kProcessTimer,
    kDataTimer,
    kFirstDerivedTimer,  ///< derived protocols start their timer ids here
  };

  /// Hook: called at every period boundary after base bookkeeping (used by
  /// the SLP extension to launch Phase 2).
  virtual void on_period_start(int period_index) { (void)period_index; }

  /// Hook: called for message types the base protocol does not understand
  /// (SEARCH / CHANGE in the SLP extension).
  virtual void on_other_message(wsn::NodeId from, const sim::Message& message) {
    (void)from;
    (void)message;
  }

  /// Adopts `new_slot` (from refinement or repair), requests re-dissemination
  /// and flags children to update (the paper's Normal := 0).
  void adopt_slot(mac::SlotId new_slot, bool update_children);

  /// Latest known info about node `n` (self included), kNoSlot if unknown.
  [[nodiscard]] NodeInfo info_of(wsn::NodeId n) const;

  /// Smallest assigned slot among {known neighbours} + {self}; the paper's
  /// nSlot computation in Phase 3. Requires at least self assigned.
  [[nodiscard]] mac::SlotId min_neighborhood_slot() const;

  /// Resets the dissemination budget (paper's DT) after a state change so
  /// the new state propagates.
  void request_dissemination() noexcept {
    dissem_budget_ = config_.dissemination_timeout;
  }

  [[nodiscard]] wsn::NodeId sink_node() const noexcept { return sink_; }
  [[nodiscard]] wsn::NodeId source_node() const noexcept { return source_; }

  /// True once the data phase (period >= MSP) has begun.
  [[nodiscard]] bool data_phase() const noexcept {
    return period_index_ >= config_.minimum_setup_periods;
  }

 private:
  void handle_hello(wsn::NodeId from);
  /// receiveN:: / receiveU:: for one DISSEM. Reads the sender's own entry
  /// from message.ninfo[0], where send_dissem always puts it, and the
  /// sender's per-neighbour state through delivery_link(). A repeat of the
  /// listing version last merged from that sender skips only the merge
  /// and the competitor rebuild; add_neighbor, the children bookkeeping
  /// and the parent repair read our own, possibly moved, state and run
  /// on every reception.
  void handle_dissem(wsn::NodeId from, const DissemMessage& message);
  /// Merges a received Ninfo listing into ninfo_; true iff an entry moved.
  bool merge_listing(
      const std::vector<std::pair<wsn::NodeId, NodeInfo>>& listing);
  void handle_normal(wsn::NodeId from, const NormalMessage& message);
  void run_process_action();  // the paper's process:: action
  void resolve_collisions();  // Figure 2's collision-detection block
  void send_dissem();
  void send_data();

  DasConfig config_;
  wsn::NodeId sink_;
  wsn::NodeId source_;

  void add_neighbor(wsn::NodeId node);
  /// Others[neighbor]; `neighbor` must be a graph neighbour of this node.
  [[nodiscard]] std::vector<wsn::NodeId>& others_of(wsn::NodeId neighbor);

  // Figure 2 variables.
  std::vector<wsn::NodeId> my_neighbors_;              // myN (discovery order)
  /// Dense membership mirror of my_neighbors_ (one byte per node):
  /// add_neighbor runs on every HELLO and DISSEM reception, and an indexed
  /// load replaces a linear scan of the discovery-order list.
  std::vector<std::uint8_t> neighbor_known_;
  util::FlatSet<wsn::NodeId> potential_parents_;            // Npar
  util::FlatSet<wsn::NodeId> children_;                     // children
  /// Others[j], one list per graph neighbour j, at j's position in the
  /// sorted graph().neighbors(id()) (see others_of): a DISSEM only ever
  /// arrives along a graph edge, so no other j is ever written.
  std::vector<std::vector<wsn::NodeId>> others_;
  /// Parallel to others_: the last DissemMessage::version merged from each
  /// graph neighbour (0: none yet this run), indexed by delivery_link().
  /// A reception that repeats it carries a listing already merged; since
  /// ninfo_ entries only ever move downward, re-merging it would change
  /// nothing, so handle_dissem skips the merge and the competitor rebuild.
  std::vector<std::uint32_t> merged_version_;
  /// Ninfo[] as a dense per-node table — the merge in handle_dissem runs
  /// millions of times per experiment, and an indexed load beats a tree
  /// walk plus node allocation. Unwritten entries read as NodeInfo{}
  /// (unassigned), exactly like an absent map key did. N entries per node
  /// make this, with neighbor_known_, the protocol's N^2 state; on_start
  /// refills both in the capacity reset_run keeps.
  std::vector<NodeInfo> ninfo_;
  /// Node ids (never our own) whose ninfo_ entry is assigned, in first-
  /// learned order. Assignment is monotone (slots never unassign), so each
  /// node appears at most once; collision resolution scans this compact
  /// list instead of the whole table.
  std::vector<wsn::NodeId> known_assigned_;
  /// Scratch for resolve_collisions' occupied-slot probe (reused so the
  /// collision path does not allocate once warmed).
  std::vector<mac::SlotId> taken_scratch_;
  /// HELLO beacons are immutable and payload-free: build one and
  /// re-broadcast it every discovery period (no per-send allocation).
  sim::MessagePtr hello_message_;
  /// Recycled DISSEM / NORMAL payloads: a broadcast whose staged copy has
  /// drained (use_count back to 1) is rebuilt in place instead of heap-
  /// allocating a fresh message — in steady state every data-phase send
  /// reuses the same two blocks. Content is rebuilt field-by-field each
  /// send, so reuse is invisible to receivers.
  std::shared_ptr<DissemMessage> dissem_pool_;
  std::shared_ptr<NormalMessage> normal_pool_;
  /// This run's listing version and the (normal, ninfo) it was stamped
  /// on. send_dissem compares each new listing with this one, so the
  /// version moves exactly when what receivers would merge moves.
  std::uint32_t listing_version_ = 0;
  bool last_normal_ = false;
  std::vector<std::pair<wsn::NodeId, NodeInfo>> last_listing_;
  int hop_ = -1;
  wsn::NodeId parent_ = wsn::kNoNode;
  mac::SlotId slot_ = mac::kNoSlot;
  bool update_pending_ = false;  // Normal == 0 until next dissem goes out

  /// Dirty flag over the inputs of the per-period repair scans (strong-DAS
  /// repair and collision resolution): set whenever a neighbour is
  /// discovered, an ninfo_ entry changes, or our own (hop, slot) moves —
  /// the only inputs those scans read. When clear, re-running the scans
  /// would provably reproduce last period's no-op, so run_process_action
  /// skips them; this kills the O(known_assigned) sweep per node per
  /// period once (and between) schedule changes.
  bool repair_check_pending_ = true;

  int period_index_ = -1;
  int dissem_budget_ = 0;

  // Data phase.
  std::uint64_t generated_seq_ = 0;
  std::uint64_t aggregated_seq_ = 0;
  std::uint64_t delivered_count_ = 0;
  std::uint64_t last_delivered_seq_ = 0;
  sim::SimTime latency_sum_ = 0;
  sim::SimTime latency_max_ = 0;
  std::uint64_t latency_count_ = 0;
};

/// Snapshot of the slot assignment across all processes of a simulator
/// running this protocol family.
[[nodiscard]] mac::Schedule extract_schedule(const sim::Simulator& simulator);

/// Snapshot of the chosen convergecast parents (kNoNode where undecided).
[[nodiscard]] std::vector<wsn::NodeId> extract_parents(
    const sim::Simulator& simulator);

}  // namespace slpdas::das
