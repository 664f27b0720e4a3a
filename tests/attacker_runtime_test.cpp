// Tests for the simulator-embedded eavesdropper: activation, audibility,
// period bookkeeping, capture detection and the (1,0,1) walk dynamics.
#include "slpdas/attacker/runtime.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace slpdas::attacker {
namespace {

using test::fast_parameters;
using test::make_protectionless_net;

AttackerParams default_params(wsn::NodeId start) {
  AttackerParams params;
  params.start = start;
  return params;
}

TEST(AttackerRuntimeTest, RejectsInvalidConfiguration) {
  auto net = make_protectionless_net(wsn::make_line(3), fast_parameters(12), 1);
  EXPECT_THROW(AttackerRuntime(*net.simulator, net.params.frame(),
                               default_params(99), 0),
               std::invalid_argument);
  EXPECT_THROW(AttackerRuntime(*net.simulator, net.params.frame(),
                               default_params(2), 99),
               std::invalid_argument);
}

TEST(AttackerRuntimeTest, DoesNotMoveBeforeActivation) {
  auto net = make_protectionless_net(wsn::make_line(4), fast_parameters(12), 2);
  AttackerRuntime attacker(*net.simulator, net.params.frame(),
                           default_params(net.topology.sink),
                           net.topology.source);
  net.simulator->run_until(net.setup_end() + 2 * net.period());
  // Never activated: stays parked at the sink despite all the traffic.
  EXPECT_EQ(attacker.location(), net.topology.sink);
  EXPECT_FALSE(attacker.captured());
}

TEST(AttackerRuntimeTest, IgnoresControlTraffic) {
  auto net = make_protectionless_net(wsn::make_line(4), fast_parameters(12), 3);
  AttackerRuntime attacker(*net.simulator, net.params.frame(),
                           default_params(net.topology.sink),
                           net.topology.source);
  attacker.activate(0);
  // Run through setup only: all traffic so far is HELLO/DISSEM, which an
  // SLP eavesdropper does not trace.
  net.simulator->run_until(net.setup_end());
  EXPECT_EQ(attacker.location(), net.topology.sink);
  EXPECT_EQ(attacker.moves_made(), 0);
}

TEST(AttackerRuntimeTest, CapturesOnLineInDistancePeriods) {
  // On a line there is only one direction to walk: the attacker must reach
  // the source in exactly Delta_ss periods of data traffic.
  auto net = make_protectionless_net(wsn::make_line(5), fast_parameters(14), 4);
  AttackerRuntime attacker(*net.simulator, net.params.frame(),
                           default_params(net.topology.sink),
                           net.topology.source);
  const sim::SimTime activation = net.setup_end();
  net.simulator->run_until(activation);
  attacker.activate(activation);
  net.simulator->run_until(activation + 10 * net.period());
  ASSERT_TRUE(attacker.captured());
  const auto periods_taken =
      (*attacker.capture_time() - activation + net.period() - 1) /
      net.period();
  EXPECT_LE(periods_taken, 5);
  EXPECT_EQ(attacker.location(), net.topology.source);
}

TEST(AttackerRuntimeTest, TrailIsAWalkOnTheGraph) {
  auto net = make_protectionless_net(wsn::make_grid(5), fast_parameters(), 5);
  AttackerRuntime attacker(*net.simulator, net.params.frame(),
                           default_params(net.topology.sink),
                           net.topology.source);
  const sim::SimTime activation = net.setup_end();
  net.simulator->run_until(activation);
  attacker.activate(activation);
  net.simulator->run_until(activation + 20 * net.period());
  const auto& trail = attacker.trail();
  ASSERT_GE(trail.size(), 2u);
  EXPECT_EQ(trail.front(), net.topology.sink);
  for (std::size_t i = 0; i + 1 < trail.size(); ++i) {
    EXPECT_TRUE(test::has_edge(net.topology.graph, trail[i], trail[i + 1]))
        << "trail step " << i;
  }
}

TEST(AttackerRuntimeTest, RangeFollowsEveryMoveAndReset) {
  // The range bitmap must equal "co-located or a graph neighbour" for
  // every node after every move: a bit left set by an earlier location
  // would let the attacker overhear a node out of range.
  auto net = make_protectionless_net(wsn::make_grid(7), fast_parameters(), 10);
  AttackerParams params = default_params(net.topology.sink);
  params.moves_per_period = 2;
  AttackerRuntime attacker(*net.simulator, net.params.frame(), params,
                           net.topology.source);
  const wsn::Graph& graph = net.topology.graph;
  const auto expect_range_matches_graph = [&](const char* when) {
    const wsn::NodeId at = attacker.location();
    for (wsn::NodeId node = 0; node < graph.node_count(); ++node) {
      EXPECT_EQ(attacker.in_range(node),
                node == at || test::has_edge(graph, node, at))
          << when << ": node " << node << ", attacker at " << at;
    }
  };
  expect_range_matches_graph("constructed");
  const sim::SimTime activation = net.setup_end();
  net.simulator->run_until(activation);
  attacker.activate(activation);
  for (int period = 1; period <= 20 && !attacker.captured(); ++period) {
    net.simulator->run_until(activation + period * net.period());
    expect_range_matches_graph("after a period");
  }
  EXPECT_GE(attacker.moves_made(), 3);
  attacker.reset_run();
  EXPECT_EQ(attacker.location(), net.topology.sink);
  expect_range_matches_graph("after reset_run");
}

TEST(AttackerRuntimeTest, OneMovePerPeriodForClassicAttacker) {
  auto net = make_protectionless_net(wsn::make_grid(5), fast_parameters(), 6);
  AttackerRuntime attacker(*net.simulator, net.params.frame(),
                           default_params(net.topology.sink),
                           net.topology.source);
  const sim::SimTime activation = net.setup_end();
  net.simulator->run_until(activation);
  attacker.activate(activation);
  const int periods = 7;
  net.simulator->run_until(activation + periods * net.period());
  EXPECT_LE(attacker.moves_made(), periods);
}

TEST(AttackerRuntimeTest, StopOnCaptureHaltsSimulation) {
  auto net = make_protectionless_net(wsn::make_line(4), fast_parameters(12), 7);
  AttackerRuntime attacker(*net.simulator, net.params.frame(),
                           default_params(net.topology.sink),
                           net.topology.source);
  const sim::SimTime activation = net.setup_end();
  net.simulator->run_until(activation);
  attacker.activate(activation);
  net.simulator->run_until(activation + 20 * net.period());
  ASSERT_TRUE(attacker.captured());
  EXPECT_TRUE(net.simulator->stopped());
  EXPECT_EQ(net.simulator->now(), *attacker.capture_time());
}

TEST(AttackerSlotInferenceTest, MapsArrivalTimesToDataSlots) {
  const mac::FrameConfig frame;  // Table I: 100 slots, Pslot 0.05s, Pdiss 0.5s
  const sim::SimTime dissem = frame.dissem_period;
  // The dissemination window carries no data slots.
  EXPECT_EQ(AttackerRuntime::infer_sender_slot(frame, 0), mac::kNoSlot);
  EXPECT_EQ(AttackerRuntime::infer_sender_slot(frame, dissem - 1),
            mac::kNoSlot);
  // First tick of slot 1; last tick of the last slot of the period.
  EXPECT_EQ(AttackerRuntime::infer_sender_slot(frame, dissem), 1);
  EXPECT_EQ(AttackerRuntime::infer_sender_slot(frame, frame.period() - 1),
            frame.slot_count);
  // The mapping is periodic: slot 2 of the third period.
  EXPECT_EQ(AttackerRuntime::infer_sender_slot(
                frame, 2 * frame.period() + dissem + frame.slot_period),
            2);
  // Pre-epoch times never map to a slot.
  EXPECT_EQ(AttackerRuntime::infer_sender_slot(frame, -5), mac::kNoSlot);
}

TEST(AttackerSlotInferenceTest, DegenerateFramesInferNoSlotInsteadOfUB) {
  // Regression: a non-positive slot period used to reach the
  // (offset - Pdiss) / Pslot division unguarded, and any inference past
  // the frame's last data slot was handed to the decision function as a
  // SlotId the schedule cannot contain.
  mac::FrameConfig zero = {};
  zero.slot_period = 0;
  EXPECT_EQ(AttackerRuntime::infer_sender_slot(zero, zero.dissem_period + 1),
            mac::kNoSlot);
  mac::FrameConfig negative = {};
  negative.slot_period = -5;
  EXPECT_EQ(
      AttackerRuntime::infer_sender_slot(negative, negative.dissem_period + 1),
      mac::kNoSlot);
  // No data slots at all: every arrival is "slot unknown".
  mac::FrameConfig slotless = {};
  slotless.slot_count = 0;
  for (sim::SimTime at : {sim::SimTime{0}, slotless.dissem_period - 1,
                          slotless.dissem_period, 3 * slotless.period()}) {
    EXPECT_EQ(AttackerRuntime::infer_sender_slot(slotless, at), mac::kNoSlot)
        << at;
  }
  // A non-positive period (negative slot count) has no slot timeline.
  mac::FrameConfig inverted = {};
  inverted.slot_count = -100;
  inverted.slot_period = sim::kSecond;
  EXPECT_EQ(AttackerRuntime::infer_sender_slot(inverted, sim::kSecond),
            mac::kNoSlot);
}

TEST(AttackerRuntimeTest, HistoryAttackerRecordsBoundedHistory) {
  auto net = make_protectionless_net(wsn::make_grid(5), fast_parameters(), 9);
  AttackerParams params;
  params.start = net.topology.sink;
  params.history_size = 2;
  params.moves_per_period = 2;
  params.decision = Decision::kHistoryAvoiding;
  AttackerRuntime attacker(*net.simulator, net.params.frame(), params,
                           net.topology.source);
  const sim::SimTime activation = net.setup_end();
  net.simulator->run_until(activation);
  attacker.activate(activation);
  net.simulator->run_until(activation + 10 * net.period());
  EXPECT_GE(attacker.moves_made(), 1);
}

}  // namespace
}  // namespace slpdas::attacker
