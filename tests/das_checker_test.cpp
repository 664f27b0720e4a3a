// Tests for the Definition 1-3 checkers: hand-built schedules with known
// violations must be flagged, and known-good schedules must pass.
#include "slpdas/verify/das_checker.hpp"

#include <gtest/gtest.h>

#include "slpdas/wsn/topology.hpp"
#include "test_util.hpp"

namespace slpdas::verify {
namespace {

using mac::Schedule;
using wsn::NodeId;

/// Line 0-1-2-3-4 with sink at 4 and a valid descending-away assignment:
/// slots 4: 10 (sink anchor), 3: 9, 2: 8, 1: 7, 0: 6.
struct LineFixture {
  wsn::Topology topology = wsn::make_line(5);
  Schedule schedule{5};
  NodeId sink = 4;

  LineFixture() {
    schedule.set_slot(4, 10);
    schedule.set_slot(3, 9);
    schedule.set_slot(2, 8);
    schedule.set_slot(1, 7);
    schedule.set_slot(0, 6);
  }
};

TEST(DasCheckerTest, ValidLineScheduleIsStrongAndWeak) {
  const LineFixture f;
  EXPECT_TRUE(check_strong_das(f.topology.graph, f.schedule, f.sink).ok());
  EXPECT_TRUE(check_weak_das(f.topology.graph, f.schedule, f.sink).ok());
  EXPECT_TRUE(check_noncolliding(f.topology.graph, f.schedule, f.sink).ok());
}

TEST(DasCheckerTest, UnassignedNodeViolatesCondition2) {
  LineFixture f;
  test::clear_slot(f.schedule, 2);
  const auto strong = check_strong_das(f.topology.graph, f.schedule, f.sink);
  EXPECT_FALSE(strong.ok());
  bool found = false;
  for (const auto& v : strong.violations) {
    found |= v.kind == ViolationKind::kUnassignedNode && v.node == 2;
  }
  EXPECT_TRUE(found);
  EXPECT_FALSE(check_weak_das(f.topology.graph, f.schedule, f.sink).ok());
}

TEST(DasCheckerTest, UnassignedSinkIsAllowed) {
  LineFixture f;
  test::clear_slot(f.schedule, f.sink);
  // Definition 2 cond. 2 excludes the sink; all senders keep valid order
  // because node 3 is sink-adjacent (m = S satisfies the disjunction).
  EXPECT_TRUE(check_strong_das(f.topology.graph, f.schedule, f.sink).ok());
  EXPECT_TRUE(check_weak_das(f.topology.graph, f.schedule, f.sink).ok());
}

TEST(DasCheckerTest, TwoHopCollisionDetected) {
  LineFixture f;
  f.schedule.set_slot(0, 8);  // same slot as node 2, two hops away
  const auto result = check_noncolliding(f.topology.graph, f.schedule, f.sink);
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations[0].kind, ViolationKind::kSlotCollision);
  EXPECT_EQ(result.violations[0].node, 0);
  EXPECT_EQ(result.violations[0].other, 2);
  EXPECT_FALSE(is_noncolliding(f.topology.graph, f.schedule, 0, f.sink));
  EXPECT_TRUE(is_noncolliding(f.topology.graph, f.schedule, 3, f.sink));
}

TEST(DasCheckerTest, ThreeHopSameSlotIsAllowed) {
  LineFixture f;
  f.schedule.set_slot(0, 9);  // same slot as node 3, three hops away
  EXPECT_TRUE(check_noncolliding(f.topology.graph, f.schedule, f.sink).ok());
  // Node 0 now shares the LARGEST sender slot (9, with node 3), i.e. both
  // sit in the final sender set sigma_l, which Definition 2 condition 3
  // (1 <= i <= l-1) does not constrain — so the strong check still passes.
  EXPECT_TRUE(check_strong_das(f.topology.graph, f.schedule, f.sink).ok());
}

TEST(DasCheckerTest, LateSlotOutsideFinalSetBreaksStrong) {
  // Extend the line so the offender is NOT in the final sender set: node 0
  // takes slot 8 on a 6-node line whose maximum sender slot is 9.
  const wsn::Topology line = wsn::make_line(6);  // sink = 5
  Schedule schedule(6);
  schedule.set_slot(5, 10);
  schedule.set_slot(4, 9);
  schedule.set_slot(3, 8);
  schedule.set_slot(2, 7);
  schedule.set_slot(1, 6);
  schedule.set_slot(0, 8);  // fires after its only parent (node 1, slot 6)
  // 0 and 3 share slot 8 but are 3 hops apart: non-colliding.
  EXPECT_TRUE(check_noncolliding(line.graph, schedule, 5).ok());
  const auto strong = check_strong_das(line.graph, schedule, 5);
  ASSERT_FALSE(strong.ok());
  EXPECT_EQ(strong.violations[0].kind, ViolationKind::kOrderViolation);
  EXPECT_EQ(strong.violations[0].node, 0);
}

TEST(DasCheckerTest, OrderViolationDetected) {
  LineFixture f;
  f.schedule.set_slot(1, 5);  // now node 0 (slot 6) fires after its parent
  const auto strong = check_strong_das(f.topology.graph, f.schedule, f.sink);
  ASSERT_FALSE(strong.ok());
  bool found = false;
  for (const auto& v : strong.violations) {
    found |= v.kind == ViolationKind::kOrderViolation && v.node == 0 &&
             v.other == 1;
  }
  EXPECT_TRUE(found);
}

TEST(DasCheckerTest, WeakAllowsNonShortestPathLaterNeighbor) {
  // 3x3 grid, sink at centre (4). Corner 0 with neighbours 1 and 3:
  // give 1 an earlier slot but 3 a later slot -> strong fails, weak holds.
  const wsn::Topology grid = wsn::make_grid(3);
  Schedule schedule(9);
  schedule.set_slot(4, 20);               // sink
  schedule.set_slot(1, 10);
  schedule.set_slot(3, 16);
  schedule.set_slot(5, 14);
  schedule.set_slot(7, 18);
  schedule.set_slot(0, 12);               // later than 1, earlier than 3
  schedule.set_slot(2, 9);
  schedule.set_slot(6, 15);
  schedule.set_slot(8, 13);
  EXPECT_FALSE(check_strong_das(grid.graph, schedule, grid.sink).ok());
  EXPECT_TRUE(check_weak_das(grid.graph, schedule, grid.sink).ok());
}

TEST(DasCheckerTest, NoLaterParentViolatesWeak) {
  // Line with node 1 latest among 0..2's neighbourhood but not sink-adjacent.
  const wsn::Topology line = wsn::make_line(4);  // sink = 3
  Schedule schedule(4);
  schedule.set_slot(3, 10);  // sink
  schedule.set_slot(2, 9);   // sink-adjacent, fine
  schedule.set_slot(1, 5);
  schedule.set_slot(0, 7);   // node 0's only neighbour (1) fires EARLIER
  const auto weak = check_weak_das(line.graph, schedule, 3);
  ASSERT_FALSE(weak.ok());
  EXPECT_EQ(weak.violations[0].kind, ViolationKind::kNoLaterParent);
  EXPECT_EQ(weak.violations[0].node, 0);
}

TEST(DasCheckerTest, FinalSenderSetExemptFromOrdering) {
  // Two-node line: node 0 is the only sender -> it is the final sender set
  // and Definition 2 condition 3 (1 <= i <= l-1) does not constrain it.
  const wsn::Topology line = wsn::make_line(2);  // sink = 1
  Schedule schedule(2);
  schedule.set_slot(1, 10);
  schedule.set_slot(0, 3);
  EXPECT_TRUE(check_strong_das(line.graph, schedule, 1).ok());
}

TEST(DasCheckerTest, SummaryMentionsViolations) {
  LineFixture f;
  f.schedule.set_slot(0, 8);
  const auto result = check_noncolliding(f.topology.graph, f.schedule, f.sink);
  EXPECT_NE(result.summary().find("slot-collision"), std::string::npos);
  EXPECT_EQ(check_noncolliding(f.topology.graph, LineFixture{}.schedule, f.sink)
                .summary(),
            "ok");
}

TEST(DasCheckerTest, ViolationKindNames) {
  EXPECT_STREQ(to_string(ViolationKind::kUnassignedNode), "unassigned-node");
  EXPECT_STREQ(to_string(ViolationKind::kSlotCollision), "slot-collision");
  EXPECT_STREQ(to_string(ViolationKind::kOrderViolation), "order-violation");
  EXPECT_STREQ(to_string(ViolationKind::kNoLaterParent), "no-later-parent");
}

}  // namespace
}  // namespace slpdas::verify
