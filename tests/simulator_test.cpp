// Tests for the discrete-event simulator: process lifecycle, broadcast
// delivery, timers (re-arm/cancel), observers, the send tally and
// determinism.
#include "slpdas/sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <numeric>
#include <tuple>
#include <utility>
#include <vector>

#include "slpdas/mac/frame.hpp"
#include "slpdas/sim/trace.hpp"
#include "slpdas/wsn/topology.hpp"

namespace slpdas::sim {
namespace {

struct PingMessage final : Message {
  int payload = 0;
  [[nodiscard]] const char* name() const noexcept override { return "PING"; }
};

/// Re-broadcasts any received ping with a decremented TTL.
class RelayProcess final : public Process {
 public:
  void on_start() override {
    if (id() == 0) {
      set_timer(1, kSecond);
    }
  }
  void on_timer(int timer_id) override {
    if (timer_id == 1) {
      auto message = std::make_shared<PingMessage>();
      message->payload = 3;
      broadcast(std::move(message));
    }
  }
  void on_message(wsn::NodeId from, const Message& message) override {
    last_sender = from;
    const auto& ping = dynamic_cast<const PingMessage&>(message);
    received.push_back(ping.payload);
    if (ping.payload > 0) {
      auto reply = std::make_shared<PingMessage>();
      reply->payload = ping.payload - 1;
      broadcast(std::move(reply));
    }
  }

  std::vector<int> received;
  wsn::NodeId last_sender = wsn::kNoNode;
};

class SimulatorTest : public ::testing::Test {
 protected:
  wsn::Topology topology_ = wsn::make_line(3);
};

TEST_F(SimulatorTest, BroadcastReachesOnlyNeighbors) {
  Simulator simulator(topology_.graph, make_ideal_radio(), 1);
  for (wsn::NodeId n = 0; n < 3; ++n) {
    simulator.add_process(n, std::make_unique<RelayProcess>());
  }
  simulator.run_until(2 * kSecond);
  auto& p0 = dynamic_cast<RelayProcess&>(simulator.process(0));
  auto& p1 = dynamic_cast<RelayProcess&>(simulator.process(1));
  auto& p2 = dynamic_cast<RelayProcess&>(simulator.process(2));
  // 0 pings (ttl 3); 1 hears it (not 2), relays (ttl 2); both 0 and 2 hear;
  // the cascade decays to ttl 0.
  ASSERT_FALSE(p1.received.empty());
  EXPECT_EQ(p1.received.front(), 3);
  ASSERT_FALSE(p2.received.empty());
  EXPECT_EQ(p2.received.front(), 2);
  EXPECT_FALSE(p0.received.empty());  // heard the relay back
}

TEST_F(SimulatorTest, PropagationDelayAppliesToDeliveries) {
  Simulator simulator(topology_.graph, make_ideal_radio(), 1);
  simulator.set_propagation_delay(5 * kMillisecond);
  for (wsn::NodeId n = 0; n < 3; ++n) {
    simulator.add_process(n, std::make_unique<RelayProcess>());
  }
  // Stop exactly when the first broadcast has been sent but not delivered.
  simulator.run_until(kSecond + 4 * kMillisecond);
  auto& p1 = dynamic_cast<RelayProcess&>(simulator.process(1));
  EXPECT_TRUE(p1.received.empty());
  simulator.run_until(kSecond + 6 * kMillisecond);
  EXPECT_EQ(p1.received.size(), 1u);
}

struct CountingObserver final : TransmissionObserver {
  int transmissions = 0;
  void on_transmission(wsn::NodeId, const Message&, SimTime) override {
    ++transmissions;
  }
};

TEST_F(SimulatorTest, SendTallyMatchesEveryReadOut) {
  // The simulator's one send tally, its three read-outs, and the per-node
  // view an observer builds from the same transmissions must all agree.
  Simulator simulator(topology_.graph, make_ideal_radio(), 1);
  CountingObserver observer;
  TraceRecorder recorder{mac::FrameConfig{}};
  simulator.add_observer(&observer);
  simulator.add_observer(&recorder);
  for (wsn::NodeId n = 0; n < 3; ++n) {
    simulator.add_process(n, std::make_unique<RelayProcess>());
  }
  simulator.run_until(10 * kSecond);
  const std::uint64_t pings = simulator.sent_of("PING");
  EXPECT_GT(pings, 0u);
  EXPECT_EQ(simulator.total_sent(), pings);
  EXPECT_EQ(simulator.sends_by_type().at("PING"), pings);
  EXPECT_EQ(static_cast<std::uint64_t>(observer.transmissions), pings);
  const std::vector<std::uint64_t> per_node = recorder.sends_per_node(3);
  EXPECT_GT(per_node[0], 0u);
  EXPECT_EQ(std::accumulate(per_node.begin(), per_node.end(),
                            std::uint64_t{0}),
            pings);
  EXPECT_FALSE(
      dynamic_cast<RelayProcess&>(simulator.process(1)).received.empty());
}

TEST_F(SimulatorTest, DeterministicAcrossIdenticalRuns) {
  auto run = [&] {
    Simulator simulator(topology_.graph, make_lossy_radio(0.3), 99);
    for (wsn::NodeId n = 0; n < 3; ++n) {
      simulator.add_process(n, std::make_unique<RelayProcess>());
    }
    simulator.run_until(10 * kSecond);
    return std::pair{simulator.total_sent(), simulator.events_executed()};
  };
  EXPECT_EQ(run(), run());
}

TEST_F(SimulatorTest, LossyRadioDropsSomeDeliveries) {
  Simulator ideal(topology_.graph, make_ideal_radio(), 5);
  Simulator lossy(topology_.graph, make_lossy_radio(0.6), 5);
  for (wsn::NodeId n = 0; n < 3; ++n) {
    ideal.add_process(n, std::make_unique<RelayProcess>());
    lossy.add_process(n, std::make_unique<RelayProcess>());
  }
  ideal.run_until(10 * kSecond);
  lossy.run_until(10 * kSecond);
  EXPECT_LT(lossy.total_sent(), ideal.total_sent());
}

TEST_F(SimulatorTest, ObserverSeesEveryTransmission) {
  Simulator simulator(topology_.graph, make_lossy_radio(0.5), 3);
  CountingObserver observer;
  simulator.add_observer(&observer);
  for (wsn::NodeId n = 0; n < 3; ++n) {
    simulator.add_process(n, std::make_unique<RelayProcess>());
  }
  simulator.run_until(10 * kSecond);
  // Observers see raw transmissions regardless of per-link loss.
  EXPECT_EQ(observer.transmissions,
            static_cast<int>(simulator.total_sent()));
}

class TimerProcess final : public Process {
 public:
  void on_start() override {
    set_timer(1, kSecond);
    set_timer(2, kSecond);
    set_timer(2, 2 * kSecond);  // re-arm supersedes
    set_timer(3, kSecond);
    cancel_timer(3);
    // Cancelling timers that were NEVER armed must be a silent no-op: it
    // may not fabricate generation state (the old per-process map grew an
    // entry here) and a later arm of the same id must still fire.
    cancel_timer(4);
    cancel_timer(1000000);
    set_timer(4, kSecond);
  }
  void on_timer(int timer_id) override { fired.push_back({timer_id, now()}); }
  void on_message(wsn::NodeId, const Message&) override {}

  std::vector<std::pair<int, SimTime>> fired;
};

TEST(SimulatorTimerTest, RearmAndCancelSemantics) {
  const wsn::Topology solo = wsn::make_line(2);
  Simulator simulator(solo.graph, make_ideal_radio(), 1);
  simulator.add_process(0, std::make_unique<TimerProcess>());
  simulator.add_process(1, std::make_unique<TimerProcess>());
  simulator.run_until(10 * kSecond);
  const auto& fired = dynamic_cast<TimerProcess&>(simulator.process(0)).fired;
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0], (std::pair{1, kSecond}));
  EXPECT_EQ(fired[1], (std::pair{4, kSecond}));
  EXPECT_EQ(fired[2], (std::pair{2, 2 * kSecond}));
}

class BadTimerProcess final : public Process {
 public:
  void on_start() override {
    EXPECT_THROW(set_timer(-1, kSecond), std::invalid_argument);
    EXPECT_THROW(set_timer(1, -kSecond), std::invalid_argument);
    cancel_timer(-1);  // negative ids are a no-op for cancel
    set_timer(1, kSecond);
  }
  void on_timer(int) override {
    // now() is past zero here, so the maximum delay must be rejected:
    // unchecked, now() + delay would wrap SimTime (signed overflow) and
    // queue a bogus expiry in the past.
    EXPECT_THROW(set_timer(1, std::numeric_limits<SimTime>::max()),
                 std::overflow_error);
    // The largest still-representable delay remains accepted.
    set_timer(2, std::numeric_limits<SimTime>::max() - now());
    ran = true;
  }
  void on_message(wsn::NodeId, const Message&) override {}

  bool ran = false;
};

TEST(SimulatorTimerTest, RejectsBadTimerArguments) {
  const wsn::Topology solo = wsn::make_line(2);
  Simulator simulator(solo.graph, make_ideal_radio(), 1);
  simulator.add_process(0, std::make_unique<BadTimerProcess>());
  simulator.add_process(1, std::make_unique<BadTimerProcess>());
  simulator.run_until(2 * kSecond);
  EXPECT_TRUE(dynamic_cast<BadTimerProcess&>(simulator.process(0)).ran);
}

TEST(SimulatorApiTest, RegistrationErrors) {
  const wsn::Topology line = wsn::make_line(2);
  Simulator simulator(line.graph, make_ideal_radio(), 1);
  EXPECT_THROW(simulator.add_process(5, std::make_unique<TimerProcess>()),
               std::out_of_range);
  simulator.add_process(0, std::make_unique<TimerProcess>());
  EXPECT_THROW(simulator.add_process(0, std::make_unique<TimerProcess>()),
               std::logic_error);
  EXPECT_THROW(simulator.add_process(1, nullptr), std::invalid_argument);
  EXPECT_THROW(simulator.add_observer(nullptr), std::invalid_argument);
  EXPECT_THROW((void)simulator.process(1), std::out_of_range);
  EXPECT_THROW(Simulator(line.graph, nullptr, 1), std::invalid_argument);
}

/// Stops the whole simulation from its own timer, half a second in.
class StopProcess final : public Process {
 public:
  void on_start() override { set_timer(0, kSecond / 2); }
  void on_timer(int) override { simulator().stop(); }
  void on_message(wsn::NodeId, const Message&) override {}
};

TEST(SimulatorApiTest, StopHaltsRun) {
  const wsn::Topology line = wsn::make_line(2);
  Simulator simulator(line.graph, make_ideal_radio(), 1);
  simulator.add_process(0, std::make_unique<TimerProcess>());
  simulator.add_process(1, std::make_unique<StopProcess>());
  simulator.run_until(10 * kSecond);
  EXPECT_TRUE(simulator.stopped());
  EXPECT_EQ(simulator.now(), kSecond / 2);
}

TEST(SimulatorApiTest, RunUntilAdvancesClockToEnd) {
  const wsn::Topology line = wsn::make_line(2);
  Simulator simulator(line.graph, make_ideal_radio(), 1);
  simulator.add_process(0, std::make_unique<TimerProcess>());
  simulator.add_process(1, std::make_unique<TimerProcess>());
  simulator.run_until(5 * kSecond);
  EXPECT_EQ(simulator.now(), 5 * kSecond);
}

// ---------------------------------------------------------------------------
// Frame-clock timers: one queue event per shared instant, dispatch order
// identical to per-node timers.
// ---------------------------------------------------------------------------

/// One handler call as observed from outside: (time, node, timer id), or
/// timer id -1 - sender for a reception.
using Call = std::tuple<SimTime, wsn::NodeId, int>;

/// Arms a random mix of timers, mostly for instants the whole network
/// shares (10 ms ticks) and some for private ones, cancels and re-arms
/// them, and broadcasts so receptions land on shared instants too. With
/// `frame_clock` off every set_frame_timer becomes a set_timer; the two
/// runs must call the handlers in exactly the same order.
class ClockMixProcess final : public Process {
 public:
  static constexpr SimTime kTick = 10 * kMillisecond;
  static constexpr SimTime kHorizon = 3 * kSecond;

  ClockMixProcess(bool frame_clock, std::vector<Call>& log)
      : frame_clock_(frame_clock), log_(log) {}

  void on_start() override { arm(1, 0, /*shared=*/true); }
  void on_timer(int timer_id) override {
    log_.emplace_back(now(), id(), timer_id);
    if (now() >= kHorizon) {
      return;
    }
    switch (rng().uniform(6)) {
      case 0:
        broadcast(ping_);  // receptions land 1 ms later, often on a tick
        break;
      case 1:
        cancel_timer(static_cast<int>(2 + rng().uniform(2)));
        break;
      default:
        break;
    }
    const SimTime to_tick = kTick - now() % kTick;
    // Timer 1 keeps the node alive; 2 and 3 come and go.
    arm(1, to_tick, /*shared=*/rng().uniform(5) != 0);
    const int extra = static_cast<int>(2 + rng().uniform(2));
    if (rng().uniform(3) == 0) {
      arm(extra, static_cast<SimTime>(rng().uniform(3 * kTick)), false);
    } else {
      arm(extra, to_tick + kTick * static_cast<SimTime>(rng().uniform(2)),
          true);
    }
  }
  void on_message(wsn::NodeId from, const Message&) override {
    log_.emplace_back(now(), id(), -1 - from);
    if (rng().uniform(4) == 0) {
      arm(2, kTick - now() % kTick, true);
    }
  }

 private:
  void arm(int timer_id, SimTime delay, bool shared) {
    if (shared && frame_clock_) {
      set_frame_timer(timer_id, delay);
    } else {
      set_timer(timer_id, delay);
    }
  }

  bool frame_clock_;
  std::vector<Call>& log_;
  MessagePtr ping_ = std::make_shared<PingMessage>();
};

struct ClockMixRun {
  std::vector<Call> log;
  std::uint64_t events = 0;
  std::uint64_t timers_fired = 0;
};

ClockMixRun run_clock_mix(bool frame_clock, std::uint64_t seed) {
  const wsn::Topology grid = wsn::make_grid(5);
  Simulator simulator(grid.graph, make_ideal_radio(), seed);
  ClockMixRun run;
  for (wsn::NodeId n = 0; n < grid.graph.node_count(); ++n) {
    simulator.add_process(n,
                          std::make_unique<ClockMixProcess>(frame_clock, run.log));
  }
  simulator.run_until(ClockMixProcess::kHorizon + kSecond);
  run.events = simulator.events_executed();
  run.timers_fired = simulator.timers_fired();
  return run;
}

TEST(FrameClockTest, DispatchOrderMatchesPerNodeTimers) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    const ClockMixRun plain = run_clock_mix(false, seed);
    const ClockMixRun framed = run_clock_mix(true, seed);
    ASSERT_GT(plain.log.size(), 5000u);
    EXPECT_EQ(framed.log, plain.log);
    // Same handler calls, far fewer queue events.
    EXPECT_LT(framed.events, plain.events);
    EXPECT_LT(framed.timers_fired, plain.timers_fired);
  }
}

/// Node `stopper` stops the simulator from inside its frame-clock expiry.
class StopAtTickProcess final : public Process {
 public:
  explicit StopAtTickProcess(wsn::NodeId stopper) : stopper_(stopper) {}
  void on_start() override { set_frame_timer(1, kSecond); }
  void on_timer(int) override {
    fired = true;
    if (id() == stopper_) {
      simulator().stop();
    }
  }
  void on_message(wsn::NodeId, const Message&) override {}

  bool fired = false;

 private:
  wsn::NodeId stopper_;
};

TEST(FrameClockTest, OneEventPerInstantAndStopEndsTheGroup) {
  const wsn::Topology line = wsn::make_line(4);
  Simulator simulator(line.graph, make_ideal_radio(), 1);
  for (wsn::NodeId n = 0; n < 4; ++n) {
    simulator.add_process(n, std::make_unique<StopAtTickProcess>(1));
  }
  simulator.run_until(10 * kSecond);
  // Four expiries for one instant: one event, one fired timer event.
  EXPECT_EQ(simulator.events_executed(), 1u);
  EXPECT_EQ(simulator.timers_fired(), 1u);
  // stop() from node 1 ends the run after node 1, exactly as it would
  // between four individual timer events.
  EXPECT_TRUE(simulator.stopped());
  std::vector<bool> fired;
  for (wsn::NodeId n = 0; n < 4; ++n) {
    fired.push_back(
        dynamic_cast<const StopAtTickProcess&>(simulator.process(n)).fired);
  }
  EXPECT_EQ(fired, (std::vector<bool>{true, true, false, false}));
}

class FrameTimerArgsProcess final : public Process {
 public:
  void on_start() override {
    EXPECT_THROW(set_frame_timer(-1, kSecond), std::invalid_argument);
    EXPECT_THROW(set_frame_timer(1, -kSecond), std::invalid_argument);
    set_frame_timer(1, kSecond);
    set_frame_timer(2, kSecond);
    set_frame_timer(2, 2 * kSecond);  // re-arm supersedes
    set_frame_timer(3, kSecond);
    cancel_timer(3);
    set_timer(4, kSecond);  // a plain timer for the same instant
    set_frame_timer(5, kSecond);
  }
  void on_timer(int timer_id) override { fired.push_back({timer_id, now()}); }
  void on_message(wsn::NodeId, const Message&) override {}

  std::vector<std::pair<int, SimTime>> fired;
};

TEST(FrameClockTest, RearmCancelAndArgumentChecksMatchSetTimer) {
  const wsn::Topology line = wsn::make_line(2);
  Simulator simulator(line.graph, make_ideal_radio(), 1);
  simulator.add_process(0, std::make_unique<FrameTimerArgsProcess>());
  simulator.add_process(1, std::make_unique<FrameTimerArgsProcess>());
  simulator.run_until(10 * kSecond);
  for (wsn::NodeId n = 0; n < 2; ++n) {
    const auto& fired =
        dynamic_cast<const FrameTimerArgsProcess&>(simulator.process(n)).fired;
    EXPECT_EQ(fired, (std::vector<std::pair<int, SimTime>>{{1, kSecond},
                                                           {4, kSecond},
                                                           {5, kSecond},
                                                           {2, 2 * kSecond}}));
  }
}

}  // namespace
}  // namespace slpdas::sim
