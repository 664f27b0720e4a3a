// Plain-text table rendering for benchmark harness output: the aligned
// console table of the rows the paper reports.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace slpdas::metrics {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Appends a row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }

  /// Writes an aligned, pipe-separated console rendering.
  void print(std::ostream& out) const;

  /// Convenience numeric cell formatting.
  [[nodiscard]] static std::string cell(double value, int precision = 2);
  [[nodiscard]] static std::string percent_cell(double ratio, int precision = 1);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace slpdas::metrics
