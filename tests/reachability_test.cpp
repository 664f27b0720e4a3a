// Tests for the attacker reachability analysis.
#include "slpdas/verify/reachability.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "slpdas/das/centralized.hpp"
#include "slpdas/wsn/topology.hpp"

namespace slpdas::verify {
namespace {

using mac::Schedule;

/// Number of nodes the attacker can ever reach (within the analysis cap).
int reachable_count(const ReachabilityResult& result) {
  return static_cast<int>(std::count_if(
      result.min_periods.begin(), result.min_periods.end(),
      [](int p) { return p != ReachabilityResult::kUnreachablePeriod; }));
}

/// Line 0-1-2-3-4, sink 4 (slot 10), descending toward 0: from the sink the
/// min-slot attacker sweeps the whole line, one period per hop.
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

TEST(ReachabilityTest, LineSweepPeriods) {
  const LineFixture f;
  const auto result =
      attacker_reachability(f.topology.graph, f.schedule, f.attacker, 100);
  EXPECT_EQ(result.min_periods,
            (std::vector<int>{4, 3, 2, 1, 0}));
  EXPECT_EQ(reachable_count(result), 5);
}

TEST(ReachabilityTest, PeriodCapTruncates) {
  const LineFixture f;
  const auto result =
      attacker_reachability(f.topology.graph, f.schedule, f.attacker, 2);
  EXPECT_EQ(result.min_periods[0], ReachabilityResult::kUnreachablePeriod);
  EXPECT_EQ(result.min_periods[2], 2);
  EXPECT_EQ(result.reached_within(2), (std::vector<wsn::NodeId>{2, 3, 4}));
}

TEST(ReachabilityTest, MatchesMinCapturePeriodPerNode) {
  // Every node's reach period is the single-source capture period, for
  // every D policy and for R in {1, 2}, H in {0, 2}.
  const wsn::Topology grid = wsn::make_grid(5);
  const auto das = das::build_centralized_das(grid.graph, grid.sink);
  const int cap = 60;
  for (const DPolicy policy :
       {DPolicy::kMinSlot, DPolicy::kAnyHeard,
        DPolicy::kHistoryAvoidingMinSlot}) {
    for (const int r : {1, 2}) {
      for (const int h : {0, 2}) {
        VerifyAttacker attacker;
        attacker.start = grid.sink;
        attacker.policy = policy;
        attacker.messages_per_move = r;
        attacker.history_size = h;
        SCOPED_TRACE("policy " + std::to_string(static_cast<int>(policy)) +
                     " R=" + std::to_string(r) + " H=" + std::to_string(h));
        const auto reach =
            attacker_reachability(grid.graph, das.schedule, attacker, cap);
        for (wsn::NodeId node = 0; node < grid.graph.node_count(); ++node) {
          const auto capture = min_capture_period(grid.graph, das.schedule,
                                                  attacker, node, cap);
          EXPECT_EQ(reach.min_periods[static_cast<std::size_t>(node)],
                    capture.value_or(ReachabilityResult::kUnreachablePeriod))
              << "node " << node;
        }
      }
    }
  }
}

TEST(ReachabilityTest, DecoyShrinksExposedRegion) {
  // Y-shape with a decoy branch (as in verify_schedule_test): the min-slot
  // attacker reaches only the decoy side.
  const wsn::Graph graph(5, {{0, 1}, {1, 2}, {0, 3}, {3, 4}});
  Schedule schedule(5);
  schedule.set_slot(0, 10);
  schedule.set_slot(1, 6);
  schedule.set_slot(2, 5);
  schedule.set_slot(3, 3);
  schedule.set_slot(4, 2);
  VerifyAttacker attacker;
  attacker.start = 0;
  const auto reach = attacker_reachability(graph, schedule, attacker, 50);
  EXPECT_NE(reach.min_periods[3], ReachabilityResult::kUnreachablePeriod);
  EXPECT_NE(reach.min_periods[4], ReachabilityResult::kUnreachablePeriod);
  EXPECT_EQ(reach.min_periods[1], ReachabilityResult::kUnreachablePeriod);
  EXPECT_EQ(reach.min_periods[2], ReachabilityResult::kUnreachablePeriod);
  EXPECT_EQ(reachable_count(reach), 3);  // start + decoy branch
}

TEST(ReachabilityTest, WorstCaseAttackerReachesEverything) {
  const wsn::Topology grid = wsn::make_grid(5);
  const auto das = das::build_centralized_das(grid.graph, grid.sink);
  VerifyAttacker attacker;
  attacker.start = grid.sink;
  attacker.policy = DPolicy::kAnyHeard;
  attacker.messages_per_move = 4;
  attacker.moves_per_period = 4;
  const auto reach =
      attacker_reachability(grid.graph, das.schedule, attacker, 200);
  EXPECT_EQ(reachable_count(reach), grid.graph.node_count());
}

TEST(ReachabilityTest, InputValidation) {
  const LineFixture f;
  VerifyAttacker bad = f.attacker;
  bad.start = 99;
  EXPECT_THROW(
      (void)attacker_reachability(f.topology.graph, f.schedule, bad, 10),
      std::out_of_range);
  EXPECT_THROW((void)attacker_reachability(f.topology.graph, Schedule{2},
                                           f.attacker, 10),
               std::invalid_argument);
  EXPECT_THROW((void)attacker_reachability(f.topology.graph, f.schedule,
                                           f.attacker, -1),
               std::invalid_argument);
}

}  // namespace
}  // namespace slpdas::verify
