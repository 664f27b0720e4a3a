#include "common.hpp"

#include <algorithm>

#include "slpdas/detail/spec_format.hpp"
#include "slpdas/verify/safety_period.hpp"

namespace slpdas::core::scenarios {

std::vector<SweepGrid::AxisValue> side_axis(const std::vector<int>& sides) {
  std::vector<SweepGrid::AxisValue> values;
  values.reserve(sides.size());
  for (const int side : sides) {
    values.push_back({std::to_string(side), [side](ExperimentConfig& config) {
                        config.topology = wsn::TopologySpec::grid(side);
                      }});
  }
  return values;
}

std::vector<SweepGrid::AxisValue> protocol_pair_axis() {
  return {{to_string(ProtocolKind::kProtectionlessDas),
           [](ExperimentConfig& config) {
             config.protocol = ProtocolKind::kProtectionlessDas;
           }},
          {to_string(ProtocolKind::kSlpDas), [](ExperimentConfig& config) {
             config.protocol = ProtocolKind::kSlpDas;
           }}};
}

std::vector<PairedRow> paired_rows(const SweepJson& document,
                                   const std::string& row_axis) {
  std::vector<PairedRow> rows;
  for (std::string& value : axis_values(document, row_axis)) {
    const SweepJsonCell& base = require_cell(
        document, {{row_axis, value},
                   {"protocol", to_string(ProtocolKind::kProtectionlessDas)}});
    const SweepJsonCell& slp = require_cell(
        document,
        {{row_axis, value}, {"protocol", to_string(ProtocolKind::kSlpDas)}});
    rows.push_back({std::move(value), base, slp});
  }
  return rows;
}

double reduction(double base_ratio, double slp_ratio) {
  return base_ratio > 0.0 ? 1.0 - slp_ratio / base_ratio : 0.0;
}

std::vector<std::string> axis_values(const SweepJson& document,
                                     const std::string& axis) {
  std::vector<std::string> values;
  for (const SweepJsonCell& cell : document.cells) {
    const std::string* value = cell.coordinate(axis);
    if (value != nullptr &&
        std::find(values.begin(), values.end(), *value) == values.end()) {
      values.push_back(*value);
    }
  }
  return values;
}

int parse_side_label(const std::string& label) {
  return slpdas::detail::SpecReader("side label", label)
      .read_int("side", label, 1);
}

double parse_cs_label(const std::string& label) {
  return slpdas::detail::SpecReader("cs label", label)
      .read_double("cs", label, verify::kSafetyFactorRange);
}

}  // namespace slpdas::core::scenarios
