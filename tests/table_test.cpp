// Tests for console table rendering used by the bench harnesses.
#include "slpdas/metrics/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace slpdas::metrics {
namespace {

TEST(TableTest, RequiresColumns) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(TableTest, RowArityEnforced) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"1"}), std::invalid_argument);
  table.add_row({"1", "2"});
  EXPECT_EQ(table.row_count(), 1u);
}

TEST(TableTest, PrintAlignsColumns) {
  Table table({"size", "capture"});
  table.add_row({"11", "30.0%"});
  table.add_row({"21", "7.5%"});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("| size | capture |"), std::string::npos);
  EXPECT_NE(text.find("| 11   | 30.0%   |"), std::string::npos);
  EXPECT_NE(text.find("|------|"), std::string::npos);
}

TEST(TableTest, NumericCells) {
  EXPECT_EQ(Table::cell(3.14159, 2), "3.14");
  EXPECT_EQ(Table::cell(2.0, 0), "2");
  EXPECT_EQ(Table::percent_cell(0.305), "30.5%");
  EXPECT_EQ(Table::percent_cell(1.0, 0), "100%");
}

}  // namespace
}  // namespace slpdas::metrics
