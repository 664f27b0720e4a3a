// Tests for Algorithm 1 (VerifySchedule): both the 0-1 BFS engine and the
// literal exhaustive engine, on hand-crafted schedules whose attacker
// behaviour can be worked out on paper.
#include "slpdas/verify/verify_schedule.hpp"

#include <gtest/gtest.h>

#include "slpdas/das/centralized.hpp"
#include "slpdas/verify/safety_period.hpp"
#include "slpdas/wsn/topology.hpp"

namespace slpdas::verify {
namespace {

using mac::Schedule;
using wsn::NodeId;

/// Line 0-1-2-3-4, sink 4 (slot 10), slots descending toward the source 0:
/// the min-slot attacker walks straight down the line, one hop per period.
struct LineFixture {
  wsn::Topology topology = wsn::make_line(5);
  Schedule schedule{5};
  VerifyAttacker attacker;

  LineFixture() {
    schedule.set_slot(4, 10);
    schedule.set_slot(3, 8);
    schedule.set_slot(2, 6);
    schedule.set_slot(1, 4);
    schedule.set_slot(0, 2);
    attacker.start = 4;
  }
};

TEST(LowestSlotNeighborsTest, OrdersBySlot) {
  const LineFixture f;
  EXPECT_EQ(lowest_slot_neighbors(f.topology.graph, f.schedule, 2, 1),
            (std::vector<NodeId>{1}));
  EXPECT_EQ(lowest_slot_neighbors(f.topology.graph, f.schedule, 2, 2),
            (std::vector<NodeId>{1, 3}));
  // Count beyond the neighbourhood is truncated.
  EXPECT_EQ(lowest_slot_neighbors(f.topology.graph, f.schedule, 0, 5),
            (std::vector<NodeId>{1}));
  EXPECT_THROW(
      (void)lowest_slot_neighbors(f.topology.graph, f.schedule, 0, 0),
      std::invalid_argument);
}

TEST(LowestSlotNeighborsTest, SkipsUnassigned) {
  LineFixture f;
  f.schedule.clear_slot(1);
  EXPECT_EQ(lowest_slot_neighbors(f.topology.graph, f.schedule, 2, 2),
            (std::vector<NodeId>{3}));
}

TEST(VerifyScheduleTest, GradientLineIsCapturedInDistancePeriods) {
  const LineFixture f;
  // Every hop goes to a strictly smaller slot -> 1 period per hop, 4 hops.
  const auto result =
      verify_schedule(f.topology.graph, f.schedule, f.attacker, 10, 0);
  EXPECT_FALSE(result.slp_aware);
  EXPECT_EQ(result.period, 4);
  EXPECT_EQ(result.counterexample, (std::vector<NodeId>{4, 3, 2, 1, 0}));
}

TEST(VerifyScheduleTest, TightSafetyPeriodBlocksCapture) {
  const LineFixture f;
  const auto result =
      verify_schedule(f.topology.graph, f.schedule, f.attacker, 3, 0);
  EXPECT_TRUE(result.slp_aware);
  EXPECT_EQ(result.period, 3);
  EXPECT_TRUE(result.counterexample.empty());
}

TEST(VerifyScheduleTest, DecoyDivertsMinSlotAttacker) {
  // Y-shape: sink 0 at the centre; real branch 0-1-2 (source at 2) and a
  // decoy branch 0-3-4 with smaller slots. The min-slot attacker always
  // prefers the decoy branch and never reaches the source.
  const wsn::Graph graph(5, {{0, 1}, {1, 2}, {0, 3}, {3, 4}});
  Schedule schedule(5);
  schedule.set_slot(0, 10);  // sink
  schedule.set_slot(1, 6);
  schedule.set_slot(2, 5);
  schedule.set_slot(3, 3);  // decoy head fires before the real branch
  schedule.set_slot(4, 2);
  VerifyAttacker attacker;
  attacker.start = 0;

  const auto result = verify_schedule(graph, schedule, attacker, 50, 2);
  EXPECT_TRUE(result.slp_aware);

  // A worst-case nondeterministic attacker (any heard message, R = 2)
  // does find the source.
  attacker.messages_per_move = 2;
  attacker.policy = DPolicy::kAnyHeard;
  const auto worst = verify_schedule(graph, schedule, attacker, 50, 2);
  EXPECT_FALSE(worst.slp_aware);
  EXPECT_EQ(worst.counterexample.back(), 2);
}

TEST(VerifyScheduleTest, HistoryAvoidingEscapesDecoyDeadEnd) {
  // Same Y-shape: with H >= 2 the attacker refuses to bounce between 3 and
  // 4 forever and eventually explores the real branch.
  const wsn::Graph graph(5, {{0, 1}, {1, 2}, {0, 3}, {3, 4}});
  Schedule schedule(5);
  schedule.set_slot(0, 10);
  schedule.set_slot(1, 6);
  schedule.set_slot(2, 5);
  schedule.set_slot(3, 3);
  schedule.set_slot(4, 2);
  VerifyAttacker attacker;
  attacker.start = 0;
  attacker.history_size = 2;
  attacker.policy = DPolicy::kHistoryAvoidingMinSlot;
  attacker.messages_per_move = 2;  // hears both branches at the junction
  // Algorithm 1 charges later-slot moves against the per-period budget M,
  // so backtracking out of the dead end (4 -> 3 -> 0, both later slots)
  // needs M = 3; with the default M = 1 the attacker stays parked forever.
  attacker.moves_per_period = 3;

  const auto result = verify_schedule(graph, schedule, attacker, 50, 2);
  EXPECT_FALSE(result.slp_aware);

  attacker.moves_per_period = 1;
  const auto parked = verify_schedule(graph, schedule, attacker, 50, 2);
  EXPECT_TRUE(parked.slp_aware);
}

TEST(VerifyScheduleTest, SamePeriodChainingRequiresMoveBudget) {
  // Line with INCREASING slots away from the attacker start: all moves are
  // "later in the same period" and gated by M.
  const wsn::Topology line = wsn::make_line(4);
  Schedule schedule(4);
  schedule.set_slot(0, 2);
  schedule.set_slot(1, 4);
  schedule.set_slot(2, 6);
  schedule.set_slot(3, 8);
  VerifyAttacker attacker;
  attacker.start = 0;
  attacker.policy = DPolicy::kAnyHeard;

  // M = 1: the attacker moves 0->1 in period 0 and then stalls: from node 1
  // the earliest neighbour is node 0 (slot 2 < 4), which costs a period,
  // then it returns... with min-slot D it oscillates. With kAnyHeard it may
  // go to 2 only as a second move in one period.
  const auto stuck = verify_schedule(line.graph, schedule, attacker, 20, 3);
  EXPECT_TRUE(stuck.slp_aware);

  attacker.moves_per_period = 3;
  attacker.messages_per_move = 2;  // hears both directions at inner nodes
  const auto chained = verify_schedule(line.graph, schedule, attacker, 20, 3);
  EXPECT_FALSE(chained.slp_aware);
  // 0 -> 1 -> 2 -> 3 all within period 0.
  EXPECT_EQ(chained.period, 0);
}

TEST(VerifyScheduleTest, UnassignedStartHearsNothing) {
  LineFixture f;
  f.schedule.clear_slot(3);
  f.schedule.clear_slot(4);
  // Start (4) unassigned: Algorithm 1 treats it as silent surroundings...
  // neighbours of 4 = {3}, also unassigned -> no moves at all.
  const auto result =
      verify_schedule(f.topology.graph, f.schedule, f.attacker, 10, 0);
  EXPECT_TRUE(result.slp_aware);
}

TEST(VerifyScheduleTest, InputValidation) {
  const LineFixture f;
  VerifyAttacker bad = f.attacker;
  bad.messages_per_move = 0;
  EXPECT_THROW(
      (void)verify_schedule(f.topology.graph, f.schedule, bad, 10, 0),
      std::invalid_argument);
  bad = f.attacker;
  bad.start = 77;
  EXPECT_THROW((void)verify_schedule(f.topology.graph, f.schedule, bad, 10, 0),
               std::out_of_range);
  EXPECT_THROW(
      (void)verify_schedule(f.topology.graph, f.schedule, f.attacker, -1, 0),
      std::invalid_argument);
  EXPECT_THROW(
      (void)verify_schedule(f.topology.graph, Schedule{3}, f.attacker, 5, 0),
      std::invalid_argument);
  // An unset source (Topology's default) is bad input, never "safe".
  EXPECT_THROW((void)verify_schedule(f.topology.graph, f.schedule, f.attacker,
                                     10, wsn::kNoNode),
               std::out_of_range);
  EXPECT_THROW((void)verify_schedule_exhaustive(f.topology.graph, f.schedule,
                                                f.attacker, 10, wsn::kNoNode),
               std::out_of_range);
  EXPECT_THROW((void)min_capture_period(f.topology.graph, f.schedule,
                                        f.attacker, wsn::kNoNode, 10),
               std::out_of_range);
}

TEST(VerifyScheduleTest, MinCapturePeriodMatchesVerify) {
  const LineFixture f;
  const auto periods = min_capture_period(f.topology.graph, f.schedule,
                                          f.attacker, 0, 100);
  ASSERT_TRUE(periods.has_value());
  EXPECT_EQ(*periods, 4);
  EXPECT_FALSE(
      min_capture_period(f.topology.graph, f.schedule, f.attacker, 0, 3)
          .has_value());
}

TEST(VerifyScheduleTest, CounterexampleStepsAreGraphEdges) {
  const wsn::Topology grid = wsn::make_grid(5);
  const auto das = das::build_centralized_das(grid.graph, grid.sink);
  VerifyAttacker attacker;
  attacker.start = grid.sink;
  const auto result =
      verify_schedule(grid.graph, das.schedule, attacker, 100, grid.source);
  if (!result.slp_aware) {
    ASSERT_GE(result.counterexample.size(), 2u);
    EXPECT_EQ(result.counterexample.front(), grid.sink);
    EXPECT_EQ(result.counterexample.back(), grid.source);
    for (std::size_t i = 0; i + 1 < result.counterexample.size(); ++i) {
      EXPECT_TRUE(grid.graph.has_edge(result.counterexample[i],
                                      result.counterexample[i + 1]));
    }
  }
}

TEST(VerifyScheduleTest, ExhaustiveAgreesWithBfsOnLine) {
  const LineFixture f;
  for (int delta : {1, 2, 3, 4, 5, 10}) {
    const auto bfs =
        verify_schedule(f.topology.graph, f.schedule, f.attacker, delta, 0);
    const auto dfs = verify_schedule_exhaustive(f.topology.graph, f.schedule,
                                                f.attacker, delta, 0);
    EXPECT_EQ(bfs.slp_aware, dfs.slp_aware) << "delta=" << delta;
    if (!bfs.slp_aware) {
      EXPECT_LE(bfs.period, dfs.period);
      EXPECT_LE(dfs.period, delta);
    }
  }
}

TEST(VerifyScheduleTest, ResultToStringIsReadable) {
  const LineFixture f;
  const auto captured =
      verify_schedule(f.topology.graph, f.schedule, f.attacker, 10, 0);
  EXPECT_NE(captured.to_string().find("captured in period 4"),
            std::string::npos);
  const auto safe =
      verify_schedule(f.topology.graph, f.schedule, f.attacker, 2, 0);
  EXPECT_NE(safe.to_string().find("slp-aware"), std::string::npos);
}

TEST(DPolicyTest, Names) {
  EXPECT_STREQ(to_string(DPolicy::kMinSlot), "min-slot");
  EXPECT_STREQ(to_string(DPolicy::kAnyHeard), "any-heard");
  EXPECT_STREQ(to_string(DPolicy::kHistoryAvoidingMinSlot),
               "history-avoiding-min-slot");
}

}  // namespace
}  // namespace slpdas::verify
