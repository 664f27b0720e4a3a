// Tests for schedule summary statistics.
#include "slpdas/mac/schedule_io.hpp"

#include <gtest/gtest.h>

namespace slpdas::mac {
namespace {

TEST(ScheduleStatsTest, KnownValues) {
  Schedule schedule(6);
  schedule.set_slot(0, 10);
  schedule.set_slot(1, 12);
  schedule.set_slot(2, 12);  // reuse
  schedule.set_slot(3, 15);
  const ScheduleStats stats = compute_stats(schedule);
  EXPECT_EQ(stats.assigned, 4);
  EXPECT_EQ(stats.min_slot, 10);
  EXPECT_EQ(stats.max_slot, 15);
  EXPECT_EQ(stats.distinct_slots, 3);
  EXPECT_EQ(stats.span, 6);
  EXPECT_DOUBLE_EQ(stats.density, 4.0 / 6.0);
}

TEST(ScheduleStatsTest, EmptyScheduleThrows) {
  EXPECT_THROW((void)compute_stats(Schedule(3)), std::logic_error);
}

}  // namespace
}  // namespace slpdas::mac
