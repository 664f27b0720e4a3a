#include "slpdas/sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <span>
#include <stdexcept>
#include <utility>

namespace slpdas::sim {

// ---------------------------------------------------------------- Process

void Process::broadcast(MessagePtr message) {
  if (simulator_ == nullptr) {
    throw std::logic_error("Process::broadcast before registration");
  }
  if (!message) {
    throw std::invalid_argument("Process::broadcast: null message");
  }
  simulator_->do_broadcast(id_, std::move(message));
}

SimTime Process::now() const { return simulator_->now(); }

Rng& Process::rng() { return simulator_->rng(); }

const wsn::Graph& Process::graph() const { return simulator_->graph(); }

void Process::reset_run() {
  throw std::logic_error(
      "Process::reset_run: this process type has not declared its "
      "seed-independent state and cannot be forked between seeds");
}

// -------------------------------------------------------------- Simulator

Simulator::Simulator(const wsn::Graph& graph, std::unique_ptr<RadioModel> radio,
                     std::uint64_t seed)
    : graph_(graph), radio_(std::move(radio)), rng_(seed) {
  if (!radio_) {
    throw std::invalid_argument("Simulator: null radio model");
  }
  const auto nodes = static_cast<std::size_t>(graph.node_count());
  processes_.resize(nodes);
  traffic_.resize(nodes);
  // One flat generation table sized for every timer id the shipped
  // protocols use, so arming a timer mid-run never grows anything.
  timer_generations_.assign(nodes * timer_stride_, 0);
  // Virtual-dispatch bypass for the default noise model (see
  // radio_delivered): resolved once here, never changes afterwards.
  casino_ = dynamic_cast<CasinoLabNoise*>(radio_.get());
  // Pre-size the event queue for this topology's steady state: pending
  // events scale with in-flight broadcasts (one event each, the whole
  // network in one dissemination slot) plus one armed timer set per
  // node; staged payloads with concurrent senders, each with room for the
  // largest neighbourhood.
  std::size_t max_degree = 0;
  for (wsn::NodeId node = 0; node < graph.node_count(); ++node) {
    max_degree = std::max(max_degree, graph.degree(node));
  }
  queue_.reserve(64 + 4 * nodes, 16 + nodes, max_degree);
  send_counters_.reserve(8);
}

void Simulator::add_process(wsn::NodeId node, std::unique_ptr<Process> process) {
  if (!graph_.contains(node)) {
    throw std::out_of_range("Simulator::add_process: node out of range");
  }
  if (!process) {
    throw std::invalid_argument("Simulator::add_process: null process");
  }
  auto& slot = processes_[static_cast<std::size_t>(node)];
  if (slot) {
    throw std::logic_error("Simulator::add_process: node already has a process");
  }
  process->simulator_ = this;
  process->id_ = node;
  slot = std::move(process);
}

void Simulator::add_observer(TransmissionObserver* observer) {
  if (observer == nullptr) {
    throw std::invalid_argument("Simulator::add_observer: null observer");
  }
  observers_.push_back(observer);
}

void Simulator::grow_timer_table(int timer_id) {
  const std::size_t new_stride =
      std::bit_ceil(static_cast<std::size_t>(timer_id) + 1);
  const std::size_t nodes = timer_generations_.size() / timer_stride_;
  std::vector<std::uint64_t> wider(nodes * new_stride, 0);
  for (std::size_t node = 0; node < nodes; ++node) {
    for (std::size_t id = 0; id < timer_stride_; ++id) {
      wider[node * new_stride + id] =
          timer_generations_[node * timer_stride_ + id];
    }
  }
  timer_generations_ = std::move(wider);
  timer_stride_ = new_stride;
}

void Simulator::set_propagation_delay(SimTime delay) {
  if (delay < 0) {
    throw std::invalid_argument("Simulator: negative propagation delay");
  }
  propagation_delay_ = delay;
}

Process& Simulator::process(wsn::NodeId node) {
  if (!graph_.contains(node) || !processes_[static_cast<std::size_t>(node)]) {
    throw std::out_of_range("Simulator::process: no process for node");
  }
  return *processes_[static_cast<std::size_t>(node)];
}

const Process& Simulator::process(wsn::NodeId node) const {
  if (!graph_.contains(node) || !processes_[static_cast<std::size_t>(node)]) {
    throw std::out_of_range("Simulator::process: no process for node");
  }
  return *processes_[static_cast<std::size_t>(node)];
}

const TrafficCounters& Simulator::traffic(wsn::NodeId node) const {
  if (!graph_.contains(node)) {
    throw std::out_of_range("Simulator::traffic: node out of range");
  }
  return traffic_[static_cast<std::size_t>(node)];
}

void Simulator::count_send(const char* name) {
  for (SendCounter& entry : send_counters_) {
    if (entry.name == name) {
      ++entry.count;
      return;
    }
  }
  send_counters_.push_back(SendCounter{name, 1});
}

const std::unordered_map<std::string, std::uint64_t>&
Simulator::sends_by_type() const {
  sends_by_type_.clear();
  for (const SendCounter& entry : send_counters_) {
    // += rather than =: two message classes are allowed to share a name
    // string with distinct pointers (e.g. the same kName text defined in
    // two translation units).
    sends_by_type_[entry.name] += entry.count;
  }
  return sends_by_type_;
}

std::uint64_t Simulator::sent_of(const char* name) const noexcept {
  std::uint64_t total = 0;
  for (const SendCounter& entry : send_counters_) {
    // Pointer identity first (the common case: one static kName per
    // class), text compare as the fallback for duplicated name strings.
    if (entry.name == name || std::strcmp(entry.name, name) == 0) {
      total += entry.count;
    }
  }
  return total;
}

void Simulator::reset_run(std::uint64_t seed) {
  queue_.reset_run();
  rng_.reseed(seed);
  now_ = 0;
  started_ = false;
  stopped_ = false;
  events_executed_ = 0;
  deliveries_executed_ = 0;
  timers_fired_ = 0;
  total_sent_ = 0;
  std::fill(traffic_.begin(), traffic_.end(), TrafficCounters{});
  std::fill(timer_generations_.begin(), timer_generations_.end(), 0);
  send_counters_.clear();
  sends_by_type_.clear();
  radio_->reset_run();
  for (auto& process : processes_) {
    if (process) {
      process->reset_run();
    }
  }
}

void Simulator::do_broadcast(wsn::NodeId from, MessagePtr message) {
  auto& counters = traffic_[static_cast<std::size_t>(from)];
  ++counters.sent;
  counters.bytes_sent += message->wire_size();
  ++total_sent_;
  count_send(message->name());

  for (TransmissionObserver* observer : observers_) {
    observer->on_transmission(from, *message, now_);
  }

  // One queue event per broadcast: the payload is staged once and every
  // receiver that passes its radio draw is appended to it. The event is
  // pushed lazily, on the first such receiver, so an all-lost broadcast
  // pushes nothing, and radio decisions stay in neighbour order (the rng
  // draw order the determinism contract pins).
  // Each reception carries its reverse link, read off the graph here, so
  // the receiver learns the sender's position in its own row for free.
  const SimTime arrival = now_ + propagation_delay_;
  const std::span<const wsn::NodeId> neighbors = graph_.neighbors(from);
  const std::span<const std::uint32_t> links = graph_.reverse_links(from);
  std::uint32_t slot = EventQueue::kNoSlot;
  for (std::size_t k = 0; k < neighbors.size(); ++k) {
    if (!radio_delivered(from, neighbors[k], now_)) {
      continue;
    }
    if (slot == EventQueue::kNoSlot) {
      slot = queue_.push_broadcast(arrival, from, std::move(message));
    }
    queue_.add_reception(slot, Reception{neighbors[k], links[k]});
  }
}

bool Simulator::step(SimTime end) {
  if (!started_) {
    started_ = true;
    for (auto& process : processes_) {
      if (process) {
        process->on_start();
      }
    }
  }
  if (stopped_ || queue_.empty() || queue_.next_time() > end) {
    return false;
  }
  const Event event = queue_.pop(now_);
  switch (event.kind()) {
    case EventKind::kDelivery: {
      // Every reception of one broadcast, in neighbour order — exactly
      // the consecutive per-receiver events they stand for. Receptions are
      // read by index because a handler that broadcasts may grow the slot
      // table; stop() takes effect after the current receiver.
      const std::uint32_t slot = event.delivery.message_slot;
      const Message& message = queue_.message(slot);
      const std::size_t receptions = queue_.reception_count(slot);
      for (std::size_t i = 0; i < receptions && !stopped_; ++i) {
        const Reception reception = queue_.reception(slot, i);
        const auto to = static_cast<std::size_t>(reception.to);
        ++traffic_[to].received;
        if (auto& receiver = processes_[to]) {
          delivery_link_ = reception.link;
          receiver->on_message(event.delivery.from, message);
        }
      }
      queue_.release_message(slot);
      ++deliveries_executed_;
      break;
    }
    case EventKind::kTimer: {
      // A stale generation means the timer was re-armed or cancelled after
      // this expiry was pushed: skip it. It still counts as an executed
      // event (exactly as the old closure-based no-op expiry did).
      if (timer_current(event.timer)) {
        ++timers_fired_;
        processes_[static_cast<std::size_t>(event.timer.node)]->on_timer(
            event.timer.timer_id);
      }
      break;
    }
    case EventKind::kTimerGroup: {
      // The frame clock: every member in arming order, each skipped when
      // stale exactly like a lone expiry. stop() takes effect after the
      // current member, as it would between individual timer events.
      bool fired = false;
      std::uint32_t cursor = queue_.take_group(event);
      while (cursor != EventQueue::kNoSlot) {
        const TimerEvent timer = queue_.next_member(cursor);
        if (!stopped_ && timer_current(timer)) {
          fired = true;
          processes_[static_cast<std::size_t>(timer.node)]->on_timer(
              timer.timer_id);
        }
      }
      timers_fired_ += fired ? 1 : 0;
      break;
    }
  }
  ++events_executed_;
  return true;
}

std::uint64_t Simulator::run_until(SimTime end) {
  std::uint64_t executed = 0;
  while (step(end)) {
    ++executed;
  }
  if (!stopped_ && (queue_.empty() || queue_.next_time() > end)) {
    now_ = end;
  }
  return executed;
}

}  // namespace slpdas::sim
