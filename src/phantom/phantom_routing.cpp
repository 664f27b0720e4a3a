#include "slpdas/phantom/phantom_routing.hpp"

#include <algorithm>
#include <stdexcept>

namespace slpdas::phantom {

PhantomRouting::PhantomRouting(const PhantomConfig& config, wsn::NodeId sink,
                               wsn::NodeId source,
                               sim::MessagePtr shared_hello)
    : config_(config),
      sink_(sink),
      source_(source),
      hello_message_(std::move(shared_hello)) {
  if (config.hello_periods < 1 || config.setup_periods <= config.hello_periods) {
    throw std::invalid_argument("PhantomConfig: invalid phase lengths");
  }
  if (config.walk_length < 0) {
    throw std::invalid_argument("PhantomConfig: negative walk length");
  }
  if (config.forward_delay_max < 1) {
    throw std::invalid_argument("PhantomConfig: forward delay must be >= 1us");
  }
}

void PhantomRouting::on_start() { set_frame_timer(kPeriodTimer, 0); }

void PhantomRouting::reset_run() {
  period_index_ = -1;
  neighbors_.clear();
  // hello_message_ persists: immutable, payload-free.
  neighbor_hops_.clear();
  hops_from_sink_ = -1;
  beacon_pending_ = false;
  generated_ = 0;
  seen_seqs_.clear();
  delivered_seqs_.clear();
  latency_sum_ = 0;
  latency_count_ = 0;
  outbox_.clear();
}

void PhantomRouting::on_timer(int timer_id) {
  switch (timer_id) {
    case kPeriodTimer: {
      ++period_index_;
      set_frame_timer(kPeriodTimer, config_.period);
      if (period_index_ < config_.hello_periods) {
        set_timer(kHelloTimer,
                  static_cast<sim::SimTime>(rng().uniform(
                      static_cast<std::uint64_t>(config_.period * 3 / 4))));
        break;
      }
      if (period_index_ == config_.hello_periods && is_sink()) {
        // Gradient setup: the sink starts the hop-count beacon flood.
        hops_from_sink_ = 0;
        beacon_pending_ = true;
        set_timer(kBeaconTimer,
                  static_cast<sim::SimTime>(
                      rng().uniform(static_cast<std::uint64_t>(
                          config_.forward_delay_max))));
      }
      if (period_index_ >= config_.setup_periods && is_source()) {
        // One datum per period, released at the period boundary (plus a
        // hair of jitter so replicated runs do not alias).
        set_timer(kGenerateTimer,
                  static_cast<sim::SimTime>(rng().uniform(
                      static_cast<std::uint64_t>(config_.forward_delay_max))));
      }
      break;
    }
    case kHelloTimer:
      if (!hello_message_) {
        hello_message_ = std::make_shared<PhantomHello>();
      }
      broadcast(hello_message_);
      break;
    case kBeaconTimer:
      if (beacon_pending_) {
        beacon_pending_ = false;
        auto beacon = std::make_shared<PhantomBeacon>();
        beacon->hops_from_sink = hops_from_sink_;
        broadcast(std::move(beacon));
      }
      break;
    case kGenerateTimer: {
      ++generated_;
      PhantomData data;
      data.seq = generated_;
      data.walk_ttl = config_.walk_length;
      data.flooding = config_.walk_length == 0;
      handle_data(id(), data);  // treat as if self-received: walk or flood
      break;
    }
    case kForwardTimer: {
      std::vector<PhantomData> batch;
      batch.swap(outbox_);
      for (PhantomData& message : batch) {
        broadcast(std::make_shared<PhantomData>(message));
      }
      break;
    }
    default:
      break;
  }
}

void PhantomRouting::schedule_forward(PhantomData next) {
  outbox_.push_back(std::move(next));
  set_timer(kForwardTimer,
            static_cast<sim::SimTime>(rng().uniform(
                static_cast<std::uint64_t>(config_.forward_delay_max))));
}

void PhantomRouting::on_message(wsn::NodeId from, const sim::Message& message) {
  // Name-pointer dispatch, as in ProtectionlessDas::on_message.
  const char* const name = message.name();
  if (name == PhantomHello::kName) {
    if (std::find(neighbors_.begin(), neighbors_.end(), from) ==
        neighbors_.end()) {
      neighbors_.push_back(from);
    }
    return;
  }
  if (name == PhantomBeacon::kName) {
    const auto* beacon = static_cast<const PhantomBeacon*>(&message);
    neighbor_hops_[from] = beacon->hops_from_sink;
    if (hops_from_sink_ == -1 ||
        beacon->hops_from_sink + 1 < hops_from_sink_) {
      hops_from_sink_ = beacon->hops_from_sink + 1;
      beacon_pending_ = true;
      set_timer(kBeaconTimer,
                static_cast<sim::SimTime>(rng().uniform(
                    static_cast<std::uint64_t>(config_.forward_delay_max))));
    }
    return;
  }
  if (name == PhantomData::kName) {
    const auto* data = static_cast<const PhantomData*>(&message);
    // Walk-phase messages are addressed; flood messages are for everyone.
    if (!data->flooding && data->walk_target != id()) {
      return;
    }
    PhantomData copy = *data;
    copy.walk_target = wsn::kNoNode;
    handle_data(from, copy);
  }
}

void PhantomRouting::handle_data(wsn::NodeId from, const PhantomData& message) {
  if (message.flooding) {
    // Flood with duplicate suppression: rebroadcast each seq once.
    if (seen_seqs_.contains(message.seq)) {
      return;
    }
    seen_seqs_.insert(message.seq);
    if (is_sink()) {
      delivered_seqs_.insert(message.seq);
      // Seq s was generated at the start of period setup_periods + s - 1.
      const sim::SimTime generated_at =
          config_.period *
          (config_.setup_periods + static_cast<sim::SimTime>(message.seq) - 1);
      if (now() >= generated_at) {
        latency_sum_ += now() - generated_at;
        ++latency_count_;
      }
      // The sink still rebroadcasts: flooding is network-wide.
    }
    PhantomData flood = message;
    flood.walk_ttl = 0;
    schedule_forward(std::move(flood));
    return;
  }

  // Walk phase. At TTL exhaustion this node is the phantom source: flood.
  if (message.walk_ttl <= 0) {
    PhantomData flood = message;
    flood.flooding = true;
    handle_data(from, flood);
    return;
  }

  // Directed random walk step: a random neighbour, never straight back to
  // the node we got it from, preferring neighbours no closer to the sink
  // (so walks drift away from the sink, per the "directed walk" variant).
  std::vector<wsn::NodeId> candidates;
  std::vector<wsn::NodeId> fallback;
  for (wsn::NodeId neighbor : neighbors_) {
    if (neighbor == from) {
      continue;
    }
    fallback.push_back(neighbor);
  }
  if (fallback.empty()) {
    fallback.assign(neighbors_.begin(), neighbors_.end());
  }
  if (fallback.empty()) {
    return;  // isolated node: datum dies (counted as undelivered)
  }
  // Directed-walk bias: prefer neighbours at least as far from the sink as
  // we are (unknown distance counts as eligible); fall back to anything
  // that is not an immediate backtrack.
  for (wsn::NodeId neighbor : fallback) {
    const auto it = neighbor_hops_.find(neighbor);
    if (it == neighbor_hops_.end() || hops_from_sink_ == -1 ||
        it->second >= hops_from_sink_) {
      candidates.push_back(neighbor);
    }
  }
  if (candidates.empty()) {
    candidates = fallback;
  }
  const wsn::NodeId next = candidates[rng().pick_index(candidates.size())];
  PhantomData step = message;
  step.walk_ttl = message.walk_ttl - 1;
  step.walk_target = next;
  step.flooding = false;
  schedule_forward(std::move(step));
}

}  // namespace slpdas::phantom
