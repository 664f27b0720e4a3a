// Simulator dispatch micro-costs, isolated from protocol logic:
//
//   dispatch/timer      a 49-node grid where every node re-arms one timer
//                       each millisecond — the pure pop -> generation
//                       check -> on_timer -> re-push cycle.
//   dispatch/frame_timer the same re-arm cycle on the frame clock: all 49
//                       expiries of a millisecond share one queue event.
//   dispatch/broadcast  every node broadcasts a shared HELLO payload each
//                       millisecond — adds message staging, the radio
//                       draws, and one delivery event per broadcast that
//                       dispatches every neighbour's reception.
//
// Items processed = simulator events executed for dispatch/timer, so its
// items/s is the substrate ceiling the full-protocol events/s numbers
// are measured against. dispatch/frame_timer counts timer expiries
// instead (49 per event), so its items/s compares directly with
// dispatch/timer's; dispatch/broadcast counts receptions (on_message
// calls, ~4 per broadcast on the grid), which do not depend on how many
// queue events carry them.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>

#include "slpdas/das/messages.hpp"
#include "slpdas/sim/radio.hpp"
#include "slpdas/sim/simulator.hpp"
#include "slpdas/wsn/topology_spec.hpp"

namespace {

using namespace slpdas;

constexpr sim::SimTime kTick = 1'000;   // 1 ms
constexpr sim::SimTime kSlice = 50'000; // simulated time per iteration

class TimerPing final : public sim::Process {
 public:
  void on_start() override { set_timer(0, kTick); }
  void on_message(wsn::NodeId, const sim::Message&) override {}
  void on_timer(int) override { set_timer(0, kTick); }
};

class FrameTimerPing final : public sim::Process {
 public:
  void on_start() override { set_frame_timer(0, kTick); }
  void on_message(wsn::NodeId, const sim::Message&) override {}
  void on_timer(int) override {
    ++expiries;
    set_frame_timer(0, kTick);
  }

  std::int64_t expiries = 0;
};

class HelloBeacon final : public sim::Process {
 public:
  void on_start() override {
    hello_ = std::make_shared<const das::HelloMessage>();
    set_timer(0, kTick);
  }
  void on_message(wsn::NodeId, const sim::Message&) override {}
  void on_timer(int) override {
    broadcast(hello_);
    set_timer(0, kTick);
  }

 private:
  sim::MessagePtr hello_;
};

/// Runs a 49-node grid of `Proc` in 50 ms slices; `items(simulator)` is
/// the work reported per run.
template <typename Proc, typename Items>
void run_dispatch(benchmark::State& state, Items items) {
  const wsn::Topology topology = wsn::TopologySpec::grid(7).build();
  sim::Simulator simulator(topology.graph, sim::make_ideal_radio(), 1);
  for (wsn::NodeId node = 0; node < topology.graph.node_count(); ++node) {
    simulator.add_process(node, std::make_unique<Proc>());
  }
  sim::SimTime horizon = 0;
  for (auto _ : state) {
    horizon += kSlice;
    benchmark::DoNotOptimize(simulator.run_until(horizon));
  }
  state.SetItemsProcessed(items(simulator));
}

std::int64_t events_of(const sim::Simulator& simulator) {
  return static_cast<std::int64_t>(simulator.events_executed());
}

void dispatch_timer(benchmark::State& state) {
  run_dispatch<TimerPing>(state, events_of);
}

void dispatch_frame_timer(benchmark::State& state) {
  run_dispatch<FrameTimerPing>(state, [](const sim::Simulator& simulator) {
    std::int64_t expiries = 0;
    for (wsn::NodeId node = 0; node < simulator.graph().node_count(); ++node) {
      expiries += dynamic_cast<const FrameTimerPing&>(simulator.process(node))
                      .expiries;
    }
    return expiries;
  });
}

void dispatch_broadcast(benchmark::State& state) {
  run_dispatch<HelloBeacon>(state, [](const sim::Simulator& simulator) {
    std::int64_t receptions = 0;
    for (wsn::NodeId node = 0; node < simulator.graph().node_count(); ++node) {
      receptions += static_cast<std::int64_t>(simulator.traffic(node).received);
    }
    return receptions;
  });
}

BENCHMARK(dispatch_timer);
BENCHMARK(dispatch_frame_timer);
BENCHMARK(dispatch_broadcast);

}  // namespace
