// Tests for the safety period computation (Definition 4 / Equation 1 /
// Section VI-B).
#include "slpdas/verify/safety_period.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "slpdas/wsn/topology.hpp"

namespace slpdas::verify {
namespace {

TEST(SafetyPeriodTest, PaperGridValues) {
  // 11x11 grid: Delta_ss = 10, C = 11 periods, safety = ceil(1.5*11) = 17.
  const wsn::Topology grid = wsn::make_grid(11);
  const SafetyPeriod safety =
      compute_safety_period(grid.graph, grid.source, grid.sink);
  EXPECT_EQ(safety.source_sink_distance, 10);
  EXPECT_EQ(safety.periods, 17);
}

TEST(SafetyPeriodTest, AllPaperSizes) {
  for (const auto& [side, distance] :
       std::vector<std::pair<int, int>>{{11, 10}, {15, 14}, {21, 20}}) {
    const wsn::Topology grid = wsn::make_grid(side);
    const SafetyPeriod safety =
        compute_safety_period(grid.graph, grid.source, grid.sink);
    EXPECT_EQ(safety.source_sink_distance, distance);
    EXPECT_EQ(safety.periods,
              static_cast<int>(std::ceil(1.5 * (distance + 1))));
  }
}

TEST(SafetyPeriodTest, DurationUsesFrameLength) {
  const wsn::Topology grid = wsn::make_grid(11);
  const SafetyPeriod safety =
      compute_safety_period(grid.graph, grid.source, grid.sink);
  const mac::FrameConfig frame;  // 5.5 s period
  EXPECT_EQ(safety.duration(frame), 17 * sim::from_seconds(5.5));
}

TEST(SafetyPeriodTest, FactorBoundsEnforced) {
  const wsn::Topology grid = wsn::make_grid(3);
  EXPECT_THROW((void)compute_safety_period(grid.graph, grid.source, grid.sink, 1.0),
               std::invalid_argument);
  EXPECT_THROW((void)compute_safety_period(grid.graph, grid.source, grid.sink, 2.0),
               std::invalid_argument);
  EXPECT_NO_THROW(
      (void)compute_safety_period(grid.graph, grid.source, grid.sink, 1.01));
  EXPECT_NO_THROW(
      (void)compute_safety_period(grid.graph, grid.source, grid.sink, 1.99));
  EXPECT_THROW((void)compute_safety_period(grid.graph, grid.source, grid.sink,
                                           std::nan("")),
               std::invalid_argument);
}

TEST(SafetyPeriodTest, DisconnectedThrows) {
  wsn::Graph graph(2);
  EXPECT_THROW((void)compute_safety_period(graph, 0, 1), std::invalid_argument);
}

TEST(SafetyPeriodTest, FactorScalesPeriods) {
  const wsn::Topology grid = wsn::make_grid(11);
  const auto low =
      compute_safety_period(grid.graph, grid.source, grid.sink, 1.1);
  const auto high =
      compute_safety_period(grid.graph, grid.source, grid.sink, 1.9);
  EXPECT_LT(low.periods, high.periods);
  EXPECT_EQ(low.periods, 13);   // ceil(1.1 * 11) = 13
  EXPECT_EQ(high.periods, 21);  // ceil(1.9 * 11) = 21
}

}  // namespace
}  // namespace slpdas::verify
