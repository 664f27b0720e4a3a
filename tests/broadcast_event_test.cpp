// Exactness of one queue event per broadcast: the simulator dispatches all
// receptions of a transmission from a single Delivery event, and every
// handler call must happen exactly where a queue with one event per
// receiver would have made it. The oracle is a small reference network in
// this file — an ordered map over (time, insertion sequence), one entry per
// reception and per timer expiry — driven by the same scripted nodes, the
// same seed and the same radio draws as the real simulator.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "slpdas/rng.hpp"
#include "slpdas/sim/radio.hpp"
#include "slpdas/sim/simulator.hpp"
#include "slpdas/wsn/topology.hpp"

namespace slpdas::sim {
namespace {

struct BurstMessage final : Message {
  BurstMessage(int id, int hops) : id(id), hops(hops) {}
  int id;
  int hops;
  [[nodiscard]] const char* name() const noexcept override { return "BURST"; }
};

/// One handler call: (time, node, timer id — or -1 - sender for a
/// reception, message id — or 0 for a timer).
using Call = std::tuple<SimTime, wsn::NodeId, int, int>;

/// What a scripted node may do from a handler, implemented once by the
/// real simulator and once by the reference network.
class Host {
 public:
  virtual ~Host() = default;
  [[nodiscard]] virtual SimTime time() const = 0;
  [[nodiscard]] virtual Rng& draws() = 0;
  virtual void send(MessagePtr message) = 0;
  virtual void arm(int timer_id, SimTime delay, bool frame_clock) = 0;
  virtual void disarm(int timer_id) = 0;
  virtual void halt() = 0;
};

/// A network's behaviour, decided through Host calls only, so both
/// implementations see the same decisions as long as they call the
/// handlers in the same order. Logs every call.
class Script {
 public:
  virtual ~Script() = default;
  virtual void start(Host& host, wsn::NodeId node) = 0;
  virtual void timer(Host& host, wsn::NodeId node, int timer_id) = 0;
  virtual void message(Host& host, wsn::NodeId node, wsn::NodeId from,
                       const BurstMessage& message) = 0;

  std::vector<Call> log;
};

// ---- the real simulator --------------------------------------------------

class ScriptedProcess final : public Process, private Host {
 public:
  explicit ScriptedProcess(Script& script) : script_(script) {}
  void on_start() override { script_.start(*this, id()); }
  void on_timer(int timer_id) override { script_.timer(*this, id(), timer_id); }
  void on_message(wsn::NodeId from, const Message& message) override {
    ++received_;
    script_.message(*this, id(), from,
                    dynamic_cast<const BurstMessage&>(message));
  }

  /// Receptions this node's handler ran for.
  [[nodiscard]] std::uint64_t received() const noexcept { return received_; }

 private:
  [[nodiscard]] SimTime time() const override { return now(); }
  [[nodiscard]] Rng& draws() override { return rng(); }
  void send(MessagePtr message) override { broadcast(std::move(message)); }
  void arm(int timer_id, SimTime delay, bool frame_clock) override {
    if (frame_clock) {
      set_frame_timer(timer_id, delay);
    } else {
      set_timer(timer_id, delay);
    }
  }
  void disarm(int timer_id) override { cancel_timer(timer_id); }
  void halt() override { simulator().stop(); }

  Script& script_;
  std::uint64_t received_ = 0;
};

/// Per-node receptions of a simulator whose every node runs a
/// ScriptedProcess, as the processes counted them.
std::vector<std::uint64_t> receptions(const Simulator& simulator) {
  std::vector<std::uint64_t> received;
  for (wsn::NodeId node = 0; node < simulator.graph().node_count(); ++node) {
    received.push_back(
        dynamic_cast<const ScriptedProcess&>(simulator.process(node))
            .received());
  }
  return received;
}

// ---- the reference: one queue entry per reception ------------------------

class ReferenceNetwork {
 public:
  ReferenceNetwork(const wsn::Graph& graph, std::unique_ptr<RadioModel> radio,
                   std::uint64_t seed, SimTime delay, Script& script)
      : graph_(graph),
        radio_(std::move(radio)),
        rng_(seed),
        delay_(delay),
        script_(script),
        received_(static_cast<std::size_t>(graph.node_count()), 0) {
    for (wsn::NodeId node = 0; node < graph.node_count(); ++node) {
      hosts_.emplace_back(*this, node);
    }
  }

  void run_until(SimTime end) {
    if (!started_) {
      started_ = true;
      for (NodeHost& host : hosts_) {
        script_.start(host, host.node);
      }
    }
    while (!stopped_ && !queue_.empty() && queue_.begin()->first.first <= end) {
      const Pending pending = queue_.begin()->second;
      now_ = queue_.begin()->first.first;
      queue_.erase(queue_.begin());
      NodeHost& host = hosts_[static_cast<std::size_t>(pending.node)];
      if (pending.message) {
        broadcasts_dispatched_ += pending.first_reception ? 1 : 0;
        ++received_[static_cast<std::size_t>(pending.node)];
        script_.message(host, pending.node, pending.from, *pending.message);
      } else if (generations_[{pending.node, pending.timer_id}] ==
                 pending.generation) {
        script_.timer(host, pending.node, pending.timer_id);
      }
    }
    if (!stopped_) {
      now_ = end;
    }
  }

  [[nodiscard]] const std::vector<std::uint64_t>& received() const {
    return received_;
  }
  /// Broadcasts whose first reception was dispatched: the events the real
  /// simulator counts in deliveries_executed().
  [[nodiscard]] std::uint64_t broadcasts_dispatched() const {
    return broadcasts_dispatched_;
  }

 private:
  struct Pending {
    wsn::NodeId node = wsn::kNoNode;
    // Reception: sender, payload, whether it is its broadcast's first.
    wsn::NodeId from = wsn::kNoNode;
    std::shared_ptr<const BurstMessage> message;
    bool first_reception = false;
    // Timer expiry (frame-clock or not: one entry per node either way).
    int timer_id = 0;
    std::uint64_t generation = 0;
  };

  struct NodeHost final : Host {
    NodeHost(ReferenceNetwork& network, wsn::NodeId node)
        : network(network), node(node) {}
    [[nodiscard]] SimTime time() const override { return network.now_; }
    [[nodiscard]] Rng& draws() override { return network.rng_; }
    void send(MessagePtr message) override {
      auto burst = std::dynamic_pointer_cast<const BurstMessage>(message);
      bool first = true;
      for (const wsn::NodeId to : network.graph_.neighbors(node)) {
        if (network.radio_->delivered(node, to, network.now_, network.rng_)) {
          Pending pending;
          pending.node = to;
          pending.from = node;
          pending.message = burst;
          pending.first_reception = first;
          first = false;
          network.push(network.now_ + network.delay_, pending);
        }
      }
    }
    void arm(int timer_id, SimTime delay, bool) override {
      Pending pending;
      pending.node = node;
      pending.timer_id = timer_id;
      pending.generation = ++network.generations_[{node, timer_id}];
      network.push(network.now_ + delay, pending);
    }
    void disarm(int timer_id) override {
      ++network.generations_[{node, timer_id}];
    }
    void halt() override { network.stopped_ = true; }

    ReferenceNetwork& network;
    wsn::NodeId node;
  };

  void push(SimTime at, const Pending& pending) {
    queue_.emplace(std::pair{at, sequence_++}, pending);
  }

  const wsn::Graph& graph_;
  std::unique_ptr<RadioModel> radio_;
  Rng rng_;
  SimTime delay_;
  Script& script_;
  std::vector<NodeHost> hosts_;
  std::map<std::pair<SimTime, std::uint64_t>, Pending> queue_;
  std::uint64_t sequence_ = 0;
  std::map<std::pair<wsn::NodeId, int>, std::uint64_t> generations_;
  std::vector<std::uint64_t> received_;
  std::uint64_t broadcasts_dispatched_ = 0;
  SimTime now_ = 0;
  bool started_ = false;
  bool stopped_ = false;
};

// ---- scripts -------------------------------------------------------------

/// Random traffic on 10 ms ticks: nodes broadcast (receptions land one
/// propagation delay later), relay what they hear a few hops, arm plain
/// and frame-clock timers for the tick, for the arrival instant and for
/// right now (zero delay, from inside a broadcast's dispatch), cancel
/// them, and optionally stop the run at the `stop_at`-th reception.
class TrafficScript final : public Script {
 public:
  static constexpr SimTime kTick = 10 * kMillisecond;
  static constexpr SimTime kHorizon = 2 * kSecond;

  TrafficScript(SimTime delay, std::uint64_t stop_at)
      : delay_(delay), stop_at_(stop_at) {}

  void start(Host& host, wsn::NodeId node) override {
    host.arm(1, kTick * (1 + node % 3), node % 2 == 0);
  }

  void timer(Host& host, wsn::NodeId node, int timer_id) override {
    log.emplace_back(host.time(), node, timer_id, 0);
    if (host.time() >= kHorizon) {
      return;
    }
    Rng& rng = host.draws();
    if (rng.uniform(3) == 0) {
      // A frame timer for the arrival instant, armed before the broadcast
      // (the broadcast then closes its group) or after it.
      const bool before = rng.uniform(2) == 0;
      if (before) {
        host.arm(2, delay_, true);
      }
      host.send(std::make_shared<BurstMessage>(next_id_++, 2));
      if (!before) {
        host.arm(2, delay_, true);
      }
    }
    if (rng.uniform(5) == 0) {
      host.disarm(static_cast<int>(2 + rng.uniform(2)));
    }
    const SimTime to_tick = kTick - host.time() % kTick;
    host.arm(1, to_tick, rng.uniform(4) != 0);
    if (rng.uniform(3) == 0) {
      host.arm(3, to_tick + kTick * static_cast<SimTime>(rng.uniform(3)),
               rng.uniform(2) == 0);
    }
  }

  void message(Host& host, wsn::NodeId node, wsn::NodeId from,
               const BurstMessage& message) override {
    log.emplace_back(host.time(), node, -1 - from, message.id);
    if (++receptions_ == stop_at_) {
      host.halt();
    }
    Rng& rng = host.draws();
    switch (rng.uniform(6)) {
      case 0:
        if (message.hops > 0) {
          host.send(std::make_shared<BurstMessage>(next_id_++,
                                                   message.hops - 1));
        }
        break;
      case 1:
        host.arm(4, 0, rng.uniform(2) == 0);  // fires after this broadcast
        break;
      case 2:
        host.arm(2, kTick - host.time() % kTick, true);
        break;
      case 3:
        host.disarm(static_cast<int>(2 + rng.uniform(3)));
        break;
      default:
        break;
    }
  }

 private:
  SimTime delay_;
  std::uint64_t stop_at_;
  int next_id_ = 1;
  std::uint64_t receptions_ = 0;
};

struct Outcome {
  std::vector<Call> log;
  std::vector<std::uint64_t> received;
  std::uint64_t broadcast_events = 0;
};

template <typename MakeScript>
std::pair<Outcome, Outcome> run_both(const wsn::Graph& graph,
                                     std::uint64_t seed, SimTime delay,
                                     SimTime end, MakeScript make_script) {
  Outcome real;
  {
    auto script = make_script();
    Simulator simulator(graph, make_lossy_radio(0.3), seed);
    simulator.set_propagation_delay(delay);
    for (wsn::NodeId node = 0; node < graph.node_count(); ++node) {
      simulator.add_process(node, std::make_unique<ScriptedProcess>(*script));
    }
    simulator.run_until(end);
    real.log = std::move(script->log);
    real.received = receptions(simulator);
    real.broadcast_events = simulator.deliveries_executed();
  }
  Outcome reference;
  {
    auto script = make_script();
    ReferenceNetwork network(graph, make_lossy_radio(0.3), seed, delay, *script);
    network.run_until(end);
    reference.log = std::move(script->log);
    reference.received = network.received();
    reference.broadcast_events = network.broadcasts_dispatched();
  }
  return {std::move(real), std::move(reference)};
}

std::uint64_t total(const std::vector<std::uint64_t>& counts) {
  std::uint64_t sum = 0;
  for (const std::uint64_t count : counts) {
    sum += count;
  }
  return sum;
}

void expect_traffic_matches(SimTime delay) {
  const wsn::Topology grid = wsn::make_grid(7);
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    const auto [real, reference] =
        run_both(grid.graph, seed, delay, TrafficScript::kHorizon + kSecond,
                 [delay] { return std::make_unique<TrafficScript>(delay, 0); });
    ASSERT_GT(total(reference.received), 2000u);
    EXPECT_EQ(real.log, reference.log);
    EXPECT_EQ(real.received, reference.received);
    EXPECT_EQ(real.broadcast_events, reference.broadcast_events);
    // One event per broadcast: far fewer events than receptions.
    EXPECT_LT(real.broadcast_events, total(real.received));
  }
}

TEST(BroadcastEventTest, MatchesPerReceiverEventsUnderRandomTraffic) {
  expect_traffic_matches(kMillisecond);
}

TEST(BroadcastEventTest, MatchesPerReceiverEventsWithZeroPropagationDelay) {
  // Receptions land on the sending instant itself, behind every event the
  // sender's handler pushed before broadcasting and ahead of everything
  // pushed after it.
  expect_traffic_matches(0);
}

TEST(BroadcastEventTest, StopMidBroadcastEndsItsReceptions) {
  const wsn::Topology grid = wsn::make_grid(7);
  for (const SimTime delay : {SimTime{0}, kMillisecond}) {
    for (const std::uint64_t stop_at : {1u, 37u, 500u}) {
      SCOPED_TRACE(stop_at);
      const auto [real, reference] = run_both(
          grid.graph, 5, delay, TrafficScript::kHorizon, [&] {
            return std::make_unique<TrafficScript>(delay, stop_at);
          });
      EXPECT_EQ(total(reference.received), stop_at);
      EXPECT_EQ(real.log, reference.log);
      EXPECT_EQ(real.received, reference.received);
    }
  }
}

/// `sender` broadcasts once at start; the receiver `stopper` stops the run
/// from its on_message.
class StopOnReceiveScript final : public Script {
 public:
  StopOnReceiveScript(wsn::NodeId sender, wsn::NodeId stopper)
      : sender_(sender), stopper_(stopper) {}
  void start(Host& host, wsn::NodeId node) override {
    if (node == sender_) {
      host.send(std::make_shared<BurstMessage>(1, 0));
    }
  }
  void timer(Host&, wsn::NodeId, int) override {}
  void message(Host& host, wsn::NodeId node, wsn::NodeId from,
               const BurstMessage& message) override {
    log.emplace_back(host.time(), node, -1 - from, message.id);
    if (node == stopper_) {
      host.halt();
    }
  }

 private:
  wsn::NodeId sender_;
  wsn::NodeId stopper_;
};

TEST(BroadcastEventTest, StopInsideDispatchSkipsTheRemainingReceivers) {
  // A 3x3 grid's centre (node 4) broadcasts to 1, 3, 5, 7 in neighbour
  // order; node 3 stops the run, so 5 and 7 neither run nor count.
  const wsn::Topology grid = wsn::make_grid(3);
  ASSERT_EQ(grid.graph.degree(4), 4u);
  Simulator simulator(grid.graph, make_ideal_radio(), 1);
  StopOnReceiveScript script(/*sender=*/4, /*stopper=*/3);
  for (wsn::NodeId node = 0; node < grid.graph.node_count(); ++node) {
    simulator.add_process(node, std::make_unique<ScriptedProcess>(script));
  }
  simulator.run_until(kSecond);
  EXPECT_TRUE(simulator.stopped());
  EXPECT_EQ(script.log, (std::vector<Call>{{kMillisecond, 1, -5, 1},
                                           {kMillisecond, 3, -5, 1}}));
  EXPECT_EQ(receptions(simulator),
            (std::vector<std::uint64_t>{0, 1, 0, 1, 0, 0, 0, 0, 0}));
  EXPECT_EQ(simulator.events_executed(), 1u);
  EXPECT_EQ(simulator.deliveries_executed(), 1u);
}

/// Node 4 broadcasts once; its first receiver floods the medium with
/// broadcasts from inside that dispatch, far past the slot table's
/// pre-sized capacity.
class FloodFromHandlerScript final : public Script {
 public:
  static constexpr int kFlood = 300;
  void start(Host& host, wsn::NodeId node) override {
    if (node == 4) {
      host.send(std::make_shared<BurstMessage>(1, 0));
    }
  }
  void timer(Host&, wsn::NodeId, int) override {}
  void message(Host& host, wsn::NodeId node, wsn::NodeId from,
               const BurstMessage& message) override {
    log.emplace_back(host.time(), node, -1 - from, message.id);
    if (message.id == 1 && log.size() == 1) {
      for (int i = 0; i < kFlood; ++i) {
        host.send(std::make_shared<BurstMessage>(2 + i, 0));
      }
    }
  }
};

TEST(BroadcastEventTest, HandlerBroadcastsGrowTheSlotTableMidDispatch) {
  const wsn::Topology grid = wsn::make_grid(3);
  Simulator simulator(grid.graph, make_ideal_radio(), 1);
  FloodFromHandlerScript script;
  for (wsn::NodeId node = 0; node < grid.graph.node_count(); ++node) {
    simulator.add_process(node, std::make_unique<ScriptedProcess>(script));
  }
  simulator.run_until(kSecond);
  // The broadcast being dispatched still reaches 3, 5 and 7 after node 1
  // queued its flood, and every flood message reaches node 1's three
  // neighbours.
  ASSERT_EQ(script.log.size(), 4u + 3u * FloodFromHandlerScript::kFlood);
  EXPECT_EQ(std::vector<Call>(script.log.begin(), script.log.begin() + 4),
            (std::vector<Call>{{kMillisecond, 1, -5, 1},
                               {kMillisecond, 3, -5, 1},
                               {kMillisecond, 5, -5, 1},
                               {kMillisecond, 7, -5, 1}}));
  EXPECT_EQ(simulator.deliveries_executed(),
            1u + FloodFromHandlerScript::kFlood);

  FloodFromHandlerScript oracle_script;
  ReferenceNetwork network(grid.graph, make_ideal_radio(), 1, kMillisecond,
                           oracle_script);
  network.run_until(kSecond);
  EXPECT_EQ(oracle_script.log, script.log);
}

/// Every node arms a frame timer for the instant node 2's broadcast
/// arrives at; node 2 broadcasts between the arming of nodes 2 and 3.
class ArrivalInstantScript final : public Script {
 public:
  void start(Host& host, wsn::NodeId node) override {
    host.arm(1, kMillisecond, true);
    if (node == 2) {
      host.send(std::make_shared<BurstMessage>(1, 0));
    }
  }
  void timer(Host& host, wsn::NodeId node, int timer_id) override {
    log.emplace_back(host.time(), node, timer_id, 0);
  }
  void message(Host& host, wsn::NodeId node, wsn::NodeId from,
               const BurstMessage& message) override {
    log.emplace_back(host.time(), node, -1 - from, message.id);
    host.arm(2, 0, true);  // joins the group opened after the broadcast
  }
};

TEST(BroadcastEventTest, BroadcastClosesTheFrameGroupOfItsArrivalInstant) {
  const wsn::Topology line = wsn::make_line(5);
  Simulator simulator(line.graph, make_ideal_radio(), 1);
  ArrivalInstantScript script;
  for (wsn::NodeId node = 0; node < 5; ++node) {
    simulator.add_process(node, std::make_unique<ScriptedProcess>(script));
  }
  simulator.run_until(kSecond);
  const SimTime at = kMillisecond;
  EXPECT_EQ(script.log, (std::vector<Call>{{at, 0, 1, 0},
                                           {at, 1, 1, 0},
                                           {at, 2, 1, 0},
                                           {at, 1, -3, 1},
                                           {at, 3, -3, 1},
                                           {at, 3, 1, 0},
                                           {at, 4, 1, 0},
                                           {at, 1, 2, 0},
                                           {at, 3, 2, 0}}));
  // Frame group (0-2), the broadcast, then the group nodes 3 and 4 opened
  // after it, still open when the receivers arm their zero-delay timers.
  EXPECT_EQ(simulator.events_executed(), 3u);
  EXPECT_EQ(simulator.deliveries_executed(), 1u);

  // The reference network (one entry per reception and per expiry)
  // makes the same calls.
  ArrivalInstantScript oracle_script;
  ReferenceNetwork network(line.graph, make_ideal_radio(), 1, kMillisecond,
                           oracle_script);
  network.run_until(kSecond);
  EXPECT_EQ(oracle_script.log, script.log);
}

/// Broadcasts on a jittered timer and checks, on every reception, that
/// delivery_link() leads back to the sender; stops the run at the
/// `stop_at`-th reception network-wide.
class LinkCheckProcess final : public Process {
 public:
  struct Tally {
    std::uint64_t received = 0;
    std::uint64_t broken = 0;
    std::uint64_t stop_at = 0;
  };

  explicit LinkCheckProcess(Tally& tally) : tally_(tally) {}
  void on_start() override { set_timer(1, jitter()); }
  void on_timer(int) override {
    broadcast(message_);
    set_timer(1, jitter());
  }
  void on_message(wsn::NodeId from, const Message&) override {
    const auto row = graph().neighbors(id());
    if (delivery_link() >= row.size() || row[delivery_link()] != from) {
      ++tally_.broken;
    }
    if (++tally_.received == tally_.stop_at) {
      simulator().stop();
    }
  }
  void reset_run() override {}

 private:
  SimTime jitter() {
    return 1 + static_cast<SimTime>(rng().uniform(5 * kMillisecond));
  }

  Tally& tally_;
  MessagePtr message_ = std::make_shared<BurstMessage>(1, 0);
};

TEST(BroadcastEventTest, EveryReceptionCarriesItsLinkAcrossStopAndReset) {
  // A unit disk (rows of every length) behind a lossy radio (a different
  // subset of each row per broadcast). The first run stops with dozens of
  // broadcasts in flight; the reset second seed then reuses their slots.
  wsn::UnitDiskParams params;
  params.node_count = 40;
  params.area_side = 40.0;
  params.radio_range = 12.0;
  params.seed = 4;
  const wsn::Topology disk = wsn::make_random_unit_disk(params);
  Simulator simulator(disk.graph, make_lossy_radio(0.3), 1);
  simulator.set_propagation_delay(20 * kMillisecond);
  LinkCheckProcess::Tally tally;
  for (wsn::NodeId node = 0; node < disk.graph.node_count(); ++node) {
    simulator.add_process(node, std::make_unique<LinkCheckProcess>(tally));
  }
  tally.stop_at = 5000;
  simulator.run_until(kSecond);
  ASSERT_TRUE(simulator.stopped());
  EXPECT_EQ(tally.broken, 0u);

  tally = LinkCheckProcess::Tally{};
  simulator.reset_run(2);
  simulator.run_until(kSecond / 2);
  EXPECT_FALSE(simulator.stopped());
  EXPECT_GT(tally.received, 5000u);
  EXPECT_EQ(tally.broken, 0u);
}

}  // namespace
}  // namespace slpdas::sim
