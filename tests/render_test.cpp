// Tests for ASCII grid rendering.
#include "slpdas/mac/render.hpp"

#include <gtest/gtest.h>

namespace slpdas::mac {
namespace {

TEST(AsciiRenderTest, PlainMap) {
  const wsn::Topology grid = wsn::make_grid(3);
  const std::string map = render_grid_ascii(grid, 3, 3);
  EXPECT_EQ(map,
            "S . .\n"
            ". K .\n"
            ". . .\n");
}

TEST(AsciiRenderTest, HighlightMarks) {
  const wsn::Topology grid = wsn::make_grid(3);
  const std::string map = render_grid_ascii(grid, 3, 3, nullptr, {2, 5});
  EXPECT_NE(map.find('#'), std::string::npos);
}

TEST(AsciiRenderTest, ScheduleValues) {
  const wsn::Topology grid = wsn::make_grid(3);
  Schedule schedule(9);
  for (wsn::NodeId n = 0; n < 9; ++n) {
    schedule.set_slot(n, 10 + n);
  }
  const std::string map = render_grid_ascii(grid, 3, 3, &schedule);
  EXPECT_NE(map.find("10S"), std::string::npos);  // source tag
  EXPECT_NE(map.find("14K"), std::string::npos);  // sink tag
  EXPECT_NE(map.find("18"), std::string::npos);
}

TEST(AsciiRenderTest, DimensionMismatchRejected) {
  const wsn::Topology grid = wsn::make_grid(3);
  EXPECT_THROW((void)render_grid_ascii(grid, 4, 3), std::invalid_argument);
}

}  // namespace
}  // namespace slpdas::mac
