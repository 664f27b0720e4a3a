#include "slpdas/das/protocol.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>

namespace slpdas::das {

namespace {

/// rank(i, Others) from Figure 2: the position of `i` in the competitor
/// list AS THE PARENT TRANSMITTED IT, i.e. in the parent's neighbour
/// discovery order. Siblings ranking themselves against the same received
/// list get distinct ranks and therefore distinct slots; because discovery
/// order is randomised by beacon jitter, sibling slot order varies per run
/// (see known_neighbors() in the header for why that matters).
int rank_in(wsn::NodeId node, const std::vector<wsn::NodeId>& competitors) {
  int rank = 0;
  for (wsn::NodeId member : competitors) {
    if (member == node) {
      return rank;
    }
    ++rank;
  }
  // Not listed (the parent had not discovered us when it disseminated):
  // rank past the end, still collision-resolved later if needed.
  return rank;
}

}  // namespace

ProtectionlessDas::ProtectionlessDas(const DasConfig& config, wsn::NodeId sink,
                                     wsn::NodeId source,
                                     sim::MessagePtr shared_hello)
    : config_(config),
      sink_(sink),
      source_(source),
      hello_message_(std::move(shared_hello)) {
  if (config.neighbor_discovery_periods < 1 ||
      config.dissemination_timeout < 1 || config.minimum_setup_periods < 2) {
    throw std::invalid_argument("DasConfig: non-positive phase lengths");
  }
  if (config.minimum_setup_periods <= config.neighbor_discovery_periods) {
    throw std::invalid_argument(
        "DasConfig: setup must extend beyond neighbour discovery");
  }
}

void ProtectionlessDas::on_start() {
  // assign() reuses the capacity reset_run kept, so a forked batch's
  // second seed refills both tables without allocating.
  const auto nodes = static_cast<std::size_t>(graph().node_count());
  ninfo_.assign(nodes, NodeInfo{});
  neighbor_known_.assign(nodes, 0);
  const std::size_t degree = graph().degree(id());
  others_.resize(degree);
  merged_version_.assign(degree, 0);
  last_listing_.reserve(1 + degree);
  set_frame_timer(kPeriodTimer, 0);
}

void ProtectionlessDas::reset_run() {
  my_neighbors_.clear();
  potential_parents_.clear();
  children_.clear();
  for (auto& competitors : others_) {
    competitors.clear();
  }
  ninfo_.clear();  // on_start refills these three
  neighbor_known_.clear();
  merged_version_.clear();
  listing_version_ = 0;
  last_normal_ = false;
  last_listing_.clear();
  known_assigned_.clear();
  taken_scratch_.clear();
  // hello_message_ / dissem_pool_ / normal_pool_ persist: the beacon is
  // immutable and the pools are rebuilt per send (the queue was reset
  // before us, so any staged reference has already drained).
  hop_ = -1;
  parent_ = wsn::kNoNode;
  slot_ = mac::kNoSlot;
  update_pending_ = false;
  repair_check_pending_ = true;
  period_index_ = -1;
  dissem_budget_ = 0;
  generated_seq_ = 0;
  aggregated_seq_ = 0;
  delivered_count_ = 0;
  last_delivered_seq_ = 0;
  latency_sum_ = 0;
  latency_max_ = 0;
  latency_count_ = 0;
}

void ProtectionlessDas::on_timer(int timer_id) {
  switch (timer_id) {
    case kPeriodTimer: {
      ++period_index_;
      set_frame_timer(kPeriodTimer, config_.period());

      if (period_index_ < config_.neighbor_discovery_periods) {
        // Neighbour discovery: one HELLO per period at a random offset, so
        // beacons from different nodes interleave like CSMA traffic would.
        set_timer(kHelloTimer,
                  static_cast<sim::SimTime>(
                      rng().uniform(static_cast<std::uint64_t>(
                          config_.period() * 3 / 4))));
        break;
      }

      if (period_index_ == config_.neighbor_discovery_periods && is_sink()) {
        // Figure 2 init:: — the sink triggers the protocol.
        hop_ = 0;
        parent_ = wsn::kNoNode;
        slot_ = config_.sink_slot;
        ninfo_[id()] = NodeInfo{hop_, slot_};
        repair_check_pending_ = true;
        request_dissemination();
      }

      if (dissem_budget_ > 0) {
        // Jittered inside the dissemination window (leaving headroom so the
        // message still arrives within the window).
        const auto window = static_cast<std::uint64_t>(
            std::max<sim::SimTime>(config_.frame.dissem_period -
                                       2 * simulator().propagation_delay(),
                                   1));
        set_timer(kDissemSendTimer,
                  static_cast<sim::SimTime>(rng().uniform(window)));
      }
      // The paper's process:: action runs once "all messages" of the
      // dissemination window have been received, i.e. at the window's end.
      set_frame_timer(kProcessTimer, config_.frame.dissem_period);

      if (data_phase() && slot_assigned() && !is_sink()) {
        set_frame_timer(kDataTimer, config_.frame.slot_offset(
                                        config_.frame.clamp_slot(slot_)));
      }
      if (data_phase() && is_source()) {
        // One fresh datum per source period (Psrc == one TDMA period).
        ++generated_seq_;
        aggregated_seq_ = std::max(aggregated_seq_, generated_seq_);
      }
      on_period_start(period_index_);
      break;
    }
    case kHelloTimer:
      if (!hello_message_) {
        hello_message_ = std::make_shared<HelloMessage>();
      }
      broadcast(hello_message_);
      break;
    case kDissemSendTimer:
      send_dissem();
      break;
    case kProcessTimer:
      run_process_action();
      break;
    case kDataTimer:
      send_data();
      break;
    default:
      break;
  }
}

void ProtectionlessDas::on_message(wsn::NodeId from,
                                   const sim::Message& message) {
  // Dispatch on per-class name-pointer identity (every protocol message
  // returns its kName array from name()): one virtual call plus pointer
  // compares, replacing a dynamic_cast chain on the hottest path of the
  // whole simulation. Branches ordered by delivery frequency.
  const char* const name = message.name();
  if (name == NormalMessage::kName) {
    handle_normal(from, static_cast<const NormalMessage&>(message));
  } else if (name == DissemMessage::kName) {
    handle_dissem(from, static_cast<const DissemMessage&>(message));
  } else if (name == HelloMessage::kName) {
    handle_hello(from);
  } else {
    on_other_message(from, message);
  }
}

void ProtectionlessDas::add_neighbor(wsn::NodeId node) {
  std::uint8_t& known = neighbor_known_[static_cast<std::size_t>(node)];
  if (!known) {
    known = 1;
    my_neighbors_.push_back(node);
    repair_check_pending_ = true;  // widens the strong-repair scan set
  }
}

std::vector<wsn::NodeId>& ProtectionlessDas::others_of(wsn::NodeId neighbor) {
  const std::span<const wsn::NodeId> neighbors = graph().neighbors(id());
  const auto position =
      std::lower_bound(neighbors.begin(), neighbors.end(), neighbor) -
      neighbors.begin();
  return others_[static_cast<std::size_t>(position)];
}

void ProtectionlessDas::handle_hello(wsn::NodeId from) {
  add_neighbor(from);
}

bool ProtectionlessDas::merge_listing(
    const std::vector<std::pair<wsn::NodeId, NodeInfo>>& listing) {
  // Slots only ever decrease in this protocol family (initial assignment,
  // collision resolution and refinement all move downward), so "smaller
  // slot wins" merges stale and fresh views correctly.
  bool learned_something = false;
  for (const auto& [node, info] : listing) {
    if (!info.assigned()) {
      continue;
    }
    NodeInfo& entry = ninfo_[node];
    if (!entry.assigned()) {
      // First assignment we hear of for `node` — assignment is monotone,
      // so this is also the one moment it joins the compact scan list.
      if (node != id()) {
        known_assigned_.push_back(node);
      }
      entry = info;
      learned_something = true;
    } else if (info.slot < entry.slot) {
      entry = info;
      learned_something = true;
    }
  }
  return learned_something;
}

void ProtectionlessDas::handle_dissem(wsn::NodeId from,
                                      const DissemMessage& message) {
  add_neighbor(from);  // dissemination also proves adjacency

  // The sender's own entry is ninfo[0]; it is needed twice below.
  const NodeInfo sender_info = message.ninfo.front().second;
  const bool sender_assigned = sender_info.assigned();
  const std::uint32_t link = delivery_link();
  const bool repeat = merged_version_[link] == message.version;
  merged_version_[link] = message.version;

  // Merge Ninfo — unless this listing was merged already: it can never
  // win again, since ninfo_ entries only move downward (see merge_listing).
  if (!repeat && merge_listing(message.ninfo)) {
    // Re-arm the DT dissemination budget: 2-hop collision detection relies
    // on middle nodes relaying fresh neighbour state, so news must keep a
    // node talking. Because slots strictly decrease, "news" is a finite
    // resource and the budget still quiesces once the schedule stabilises.
    request_dissemination();
    repair_check_pending_ = true;  // an ninfo_ entry moved
  }

  // receiveN:: — while unassigned, record assigned senders as potential
  // parents, and their unassigned neighbours as slot competitors.
  if (message.normal && !slot_assigned() && sender_assigned) {
    potential_parents_.insert(from);
    if (!repeat) {
      // Rebuilt in place, in the sender's listing order: clear() keeps
      // the list's capacity, so re-learning it during setup does not
      // allocate. A repeat was rebuilt from this very listing (we were
      // unassigned then too: assignment is monotone).
      std::vector<wsn::NodeId>& competitors = others_[link];
      competitors.clear();
      for (const auto& [node, info] : message.ninfo) {
        if (!info.assigned()) {
          competitors.push_back(node);
        }
      }
    }
  }

  // Children discovery: a sender that names us as parent is our child.
  if (message.parent == id()) {
    children_.insert(from);
  } else {
    children_.erase(from);
  }

  // receiveU:: — parent slot repair. If our parent now transmits at or
  // before us, drop strictly below it to restore the DAS ordering, and
  // propagate the update downstream (Normal := 0).
  if (slot_assigned() && from == parent_ && sender_assigned &&
      slot_ >= sender_info.slot) {
    adopt_slot(sender_info.slot - 1, /*update_children=*/true);
  }
}

void ProtectionlessDas::handle_normal(wsn::NodeId from,
                                      const NormalMessage& message) {
  (void)from;
  if (message.aggregated_seq > aggregated_seq_) {
    aggregated_seq_ = message.aggregated_seq;
  }
  if (is_sink() && message.aggregated_seq > last_delivered_seq_) {
    delivered_count_ += message.aggregated_seq - last_delivered_seq_;
    last_delivered_seq_ = message.aggregated_seq;
    // Sequence s is generated at the start of period MSP + s - 1 (the
    // source emits one datum per period from the data phase on), so the
    // sink can compute end-to-end aggregation latency locally.
    const sim::SimTime generated_at =
        config_.period() *
        (config_.minimum_setup_periods +
         static_cast<sim::SimTime>(message.aggregated_seq) - 1);
    const sim::SimTime latency = now() - generated_at;
    if (latency >= 0) {
      latency_sum_ += latency;
      latency_max_ = std::max(latency_max_, latency);
      ++latency_count_;
    }
  }
}

void ProtectionlessDas::run_process_action() {
  if (period_index_ < config_.neighbor_discovery_periods) {
    return;
  }
  // process:: — choose parent and slot once at least one potential parent
  // (an already-assigned neighbour) is known.
  if (!slot_assigned() && !is_sink() && !potential_parents_.empty()) {
    int best_hop = std::numeric_limits<int>::max();
    for (wsn::NodeId candidate : potential_parents_) {
      best_hop = std::min(best_hop, ninfo_[candidate].hop);
    }
    wsn::NodeId chosen = wsn::kNoNode;
    for (wsn::NodeId candidate : potential_parents_) {
      if (ninfo_[candidate].hop == best_hop) {
        chosen = candidate;  // sets iterate ascending: min id wins
        break;
      }
    }
    hop_ = best_hop + 1;
    parent_ = chosen;
    slot_ = ninfo_[chosen].slot - rank_in(id(), others_of(chosen)) - 1;
    ninfo_[id()] = NodeInfo{hop_, slot_};
    repair_check_pending_ = true;
    request_dissemination();
  }
  // The repair scans are pure functions of (my_neighbors_, ninfo_, hop_,
  // slot_): with no change since the last check they would reproduce last
  // period's no-op, so only re-scan when the dirty flag says an input
  // moved. Repairs themselves re-set the flag (via adopt_slot), keeping
  // the original converge-until-fixed-point behaviour.
  if (slot_assigned() && !is_sink() && repair_check_pending_) {
    repair_check_pending_ = false;
    if (config_.enforce_strong_das) {
      // Strong DAS repair (Definition 2 cond 3): drop strictly below every
      // known shortest-path neighbour (hop == ours - 1), not only the
      // parent.
      mac::SlotId upper = std::numeric_limits<mac::SlotId>::max();
      for (wsn::NodeId neighbor : my_neighbors_) {
        const NodeInfo& info = ninfo_[neighbor];
        if (info.assigned() && info.hop == hop_ - 1) {
          upper = std::min(upper, info.slot);
        }
      }
      if (upper != std::numeric_limits<mac::SlotId>::max() && slot_ >= upper) {
        adopt_slot(upper - 1, /*update_children=*/true);
      }
    }
    resolve_collisions();
  }
  ninfo_[id()] = NodeInfo{hop_, slot_};
}

void ProtectionlessDas::resolve_collisions() {
  // Figure 2's collision block: when some known node shares our slot and we
  // lose the (hop, id) tie-break, move earlier; the winner keeps its slot,
  // so exactly one of each colliding pair moves. We jump directly to the
  // next slot that is free in our known (2-hop) neighbourhood rather than
  // stepping -1 per dissemination round: stepping converges to the same
  // fixed point but needs one full propagation round per occupied slot,
  // which explodes repair time after Phase 3 drops a decoy subtree into a
  // densely occupied slot band.
  bool we_lose = false;
  for (const wsn::NodeId node : known_assigned_) {
    const NodeInfo& info = ninfo_[node];
    if (info.slot == slot_ &&
        (hop_ > info.hop || (hop_ == info.hop && id() > node))) {
      we_lose = true;
      break;
    }
  }
  if (!we_lose) {
    return;
  }
  // Occupied slots of the known neighbourhood, sorted for the binary
  // search below. A reused scratch vector: this path runs per collision
  // per dissemination round, and a tree set would allocate per entry.
  taken_scratch_.clear();
  for (const wsn::NodeId node : known_assigned_) {
    taken_scratch_.push_back(ninfo_[node].slot);
  }
  std::sort(taken_scratch_.begin(), taken_scratch_.end());
  mac::SlotId candidate = slot_ - 1;
  while (std::binary_search(taken_scratch_.begin(), taken_scratch_.end(),
                            candidate)) {
    --candidate;
  }
  // Children sitting at or below the new slot must re-order under us.
  adopt_slot(candidate, /*update_children=*/true);
}

void ProtectionlessDas::adopt_slot(mac::SlotId new_slot, bool update_children) {
  slot_ = new_slot;
  ninfo_[id()] = NodeInfo{hop_, slot_};
  update_pending_ = update_pending_ || update_children;
  repair_check_pending_ = true;
  request_dissemination();
}

NodeInfo ProtectionlessDas::info_of(wsn::NodeId n) const {
  // Total over ALL ids, like the map lookup it replaced: out-of-range ids
  // (kNoNode from an unset parent, say) read as "unknown", not as UB.
  if (n < 0 || static_cast<std::size_t>(n) >= ninfo_.size()) {
    return NodeInfo{};
  }
  return ninfo_[n];
}

mac::SlotId ProtectionlessDas::min_neighborhood_slot() const {
  if (!slot_assigned()) {
    throw std::logic_error("min_neighborhood_slot: node unassigned");
  }
  mac::SlotId best = slot_;
  for (wsn::NodeId neighbor : my_neighbors_) {
    const NodeInfo info = info_of(neighbor);
    if (info.assigned()) {
      best = std::min(best, info.slot);
    }
  }
  return best;
}

void ProtectionlessDas::send_dissem() {
  if (dissem_budget_ <= 0) {
    return;
  }
  --dissem_budget_;
  // Reuse the pooled payload iff no staged copy of the previous send is
  // still queued (sole owner check); receivers see identical content
  // either way, since every field is rebuilt below.
  if (!dissem_pool_ || dissem_pool_.use_count() != 1) {
    dissem_pool_ = std::make_shared<DissemMessage>();
  }
  DissemMessage& message = *dissem_pool_;
  message.normal = !update_pending_;
  message.sender = id();
  message.parent = parent_;
  message.ninfo.clear();
  message.ninfo.reserve(1 + my_neighbors_.size());
  message.ninfo.emplace_back(id(), NodeInfo{hop_, slot_});
  for (wsn::NodeId neighbor : my_neighbors_) {
    message.ninfo.emplace_back(neighbor, info_of(neighbor));
  }
  if (message.normal != last_normal_ || message.ninfo != last_listing_) {
    ++listing_version_;
    last_normal_ = message.normal;
    last_listing_ = message.ninfo;
  }
  message.version = listing_version_;
  update_pending_ = false;
  broadcast(dissem_pool_);
}

void ProtectionlessDas::send_data() {
  if (!slot_assigned() || is_sink()) {
    return;
  }
  if (!normal_pool_ || normal_pool_.use_count() != 1) {
    normal_pool_ = std::make_shared<NormalMessage>();
  }
  normal_pool_->sender = id();
  normal_pool_->aggregated_seq = aggregated_seq_;
  broadcast(normal_pool_);
}

mac::Schedule extract_schedule(const sim::Simulator& simulator) {
  mac::Schedule schedule(simulator.graph().node_count());
  for (wsn::NodeId node = 0; node < simulator.graph().node_count(); ++node) {
    const auto& process =
        dynamic_cast<const ProtectionlessDas&>(simulator.process(node));
    if (process.slot_assigned()) {
      schedule.set_slot(node, process.slot());
    }
  }
  return schedule;
}

std::vector<wsn::NodeId> extract_parents(const sim::Simulator& simulator) {
  std::vector<wsn::NodeId> parents(
      static_cast<std::size_t>(simulator.graph().node_count()), wsn::kNoNode);
  for (wsn::NodeId node = 0; node < simulator.graph().node_count(); ++node) {
    const auto& process =
        dynamic_cast<const ProtectionlessDas&>(simulator.process(node));
    parents[static_cast<std::size_t>(node)] = process.parent();
  }
  return parents;
}

}  // namespace slpdas::das
