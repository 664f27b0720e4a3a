// Tests for the TDMA slot table (mac::Schedule).
#include "slpdas/mac/schedule.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace slpdas::mac {
namespace {

TEST(ScheduleTest, StartsUnassigned) {
  const Schedule schedule(4);
  EXPECT_EQ(schedule.node_count(), 4);
  EXPECT_EQ(schedule.assigned_count(), 0);
  EXPECT_FALSE(schedule.complete());
  for (wsn::NodeId n = 0; n < 4; ++n) {
    EXPECT_FALSE(schedule.assigned(n));
    EXPECT_EQ(schedule.slot(n), kNoSlot);
  }
}

TEST(ScheduleTest, SetClearRoundTrip) {
  Schedule schedule(3);
  schedule.set_slot(1, 42);
  EXPECT_TRUE(schedule.assigned(1));
  EXPECT_EQ(schedule.slot(1), 42);
  test::clear_slot(schedule, 1);
  EXPECT_FALSE(schedule.assigned(1));
}

TEST(ScheduleTest, NegativeSlotsAreRepresentable) {
  Schedule schedule(2);
  schedule.set_slot(0, -5);  // refinement can push below 1
  EXPECT_EQ(schedule.slot(0), -5);
}

TEST(ScheduleTest, ReservedSentinelRejected) {
  Schedule schedule(2);
  EXPECT_THROW(schedule.set_slot(0, kNoSlot), std::invalid_argument);
}

TEST(ScheduleTest, OutOfRangeRejected) {
  Schedule schedule(2);
  EXPECT_THROW(schedule.set_slot(2, 1), std::out_of_range);
  EXPECT_THROW((void)schedule.slot(-1), std::out_of_range);
  EXPECT_THROW(Schedule(-1), std::invalid_argument);
}

TEST(ScheduleTest, MinMaxSlot) {
  Schedule schedule(4);
  EXPECT_THROW((void)schedule.min_slot(), std::logic_error);
  schedule.set_slot(0, 10);
  schedule.set_slot(2, -3);
  schedule.set_slot(3, 7);
  EXPECT_EQ(schedule.min_slot(), -3);
  EXPECT_EQ(schedule.max_slot(), 10);
}

TEST(ScheduleTest, Equality) {
  Schedule a(2);
  Schedule b(2);
  EXPECT_EQ(a, b);
  a.set_slot(0, 3);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace slpdas::mac
