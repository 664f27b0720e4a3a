#include "slpdas/metrics/table.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace slpdas::metrics {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) {
    throw std::invalid_argument("Table: need at least one column");
  }
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("Table::add_row: expected " +
                                std::to_string(headers_.size()) + " cells, got " +
                                std::to_string(cells.size()));
  }
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& out) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t column = 0; column < headers_.size(); ++column) {
    widths[column] = headers_[column].size();
    for (const auto& row : rows_) {
      widths[column] = std::max(widths[column], row[column].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    out << "| ";
    for (std::size_t column = 0; column < row.size(); ++column) {
      out << std::left << std::setw(static_cast<int>(widths[column]))
          << row[column] << " | ";
    }
    out << '\n';
  };
  print_row(headers_);
  out << '|';
  for (std::size_t column = 0; column < headers_.size(); ++column) {
    out << std::string(widths[column] + 2, '-') << '|';
  }
  out << '\n';
  for (const auto& row : rows_) {
    print_row(row);
  }
}

std::string Table::cell(double value, int precision) {
  std::ostringstream stream;
  stream << std::fixed << std::setprecision(precision) << value;
  return stream.str();
}

std::string Table::percent_cell(double ratio, int precision) {
  std::ostringstream stream;
  stream << std::fixed << std::setprecision(precision) << ratio * 100.0 << '%';
  return stream.str();
}

}  // namespace slpdas::metrics
