// Scenario `custom` — an experiment composed entirely from the command
// line, no C++ required:
//
//   slpdas_bench run custom --set topology=udisk:n=400,r=10
//       --set protocol=slp-das --set attacker=R=2,H=4,D=min-slot
//
// Every `--set key=value` assigns a spec to one of the grid axes
// (topology, protocol, attacker, radio, sd, cs); repeating a key turns
// that axis into a sweep over the repeated values, in the order given,
// with the cartesian product of all axes as the grid. Values are
// canonicalised through the spec parsers (slp_das -> slp-das), so cell
// labels — and therefore seeds, shard partitions and stream identities —
// do not depend on how a spec was spelled. The protocol axis is unseeded
// (common random numbers), matching every built-in comparison scenario.
#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "slpdas/detail/spec_format.hpp"
#include "slpdas/metrics/table.hpp"
#include "slpdas/verify/safety_period.hpp"

namespace slpdas::core::scenarios {

namespace {

/// One --set key: how a value string becomes an axis value (canonical
/// label + config mutator).
struct CustomKey {
  const char* key;
  SweepGrid::AxisValue (*make_value)(const std::string& value);
};

const CustomKey kCustomKeys[] = {
    {"topology",
     [](const std::string& value) -> SweepGrid::AxisValue {
       const wsn::TopologySpec spec = wsn::TopologySpec::parse(value);
       return {spec.to_string(), [spec](ExperimentConfig& config) {
                 config.topology = spec;
               }};
     }},
    {"protocol",
     [](const std::string& value) -> SweepGrid::AxisValue {
       ExperimentConfig probe;  // canonicalise via the parser
       apply_protocol_spec(value, probe);
       return {format_protocol_spec(probe.protocol,
                                    probe.phantom_walk_length),
               [value](ExperimentConfig& config) {
                 apply_protocol_spec(value, config);
               }};
     }},
    {"attacker",
     [](const std::string& value) -> SweepGrid::AxisValue {
       const AttackerSpec spec = AttackerSpec::parse(value);
       return {spec.to_spec(), [spec](ExperimentConfig& config) {
                 config.attacker = spec;
               }};
     }},
    {"radio",
     [](const std::string& value) -> SweepGrid::AxisValue {
       ExperimentConfig probe;
       apply_radio_spec(value, probe);
       return {format_radio_spec(probe.radio, probe.loss_probability),
               [value](ExperimentConfig& config) {
                 apply_radio_spec(value, config);
               }};
     }},
    {"sd",
     [](const std::string& value) -> SweepGrid::AxisValue {
       const int sd =
           detail::SpecReader("custom scenario --set sd", value)
               .read_int("sd", value, 1);
       return {std::to_string(sd), [sd](ExperimentConfig& config) {
                 config.parameters.search_distance = sd;
               }};
     }},
    {"cs",
     [](const std::string& value) -> SweepGrid::AxisValue {
       // Eq. 1's bound, checked before any cell runs.
       const double cs =
           detail::SpecReader("custom scenario --set cs", value)
               .read_double("cs", value, verify::kSafetyFactorRange);
       // Canonical label via shortest round-trip print ("1.50" -> "1.5"),
       // so spelling never splits one cell into two.
       return {detail::format_double_shortest(cs),
               [cs](ExperimentConfig& config) {
                 config.parameters.safety_factor = cs;
               }};
     }},
};

std::vector<SweepCell> make_custom_cells(const ScenarioOptions& options) {
  ExperimentConfig base;
  base.radio = RadioKind::kCasinoLab;
  base.check_schedules = false;

  // Group --set values by key, keeping both the keys' and the values'
  // first-appearance order.
  std::vector<std::pair<std::string, std::vector<std::string>>> axes;
  for (const auto& [key, value] : options.sets) {
    auto at = std::find_if(axes.begin(), axes.end(),
                           [&key](const auto& axis) {
                             return axis.first == key;
                           });
    if (at == axes.end()) {
      const bool known = std::any_of(
          std::begin(kCustomKeys), std::end(kCustomKeys),
          [&key](const CustomKey& k) { return key == k.key; });
      if (!known) {
        std::string valid;
        for (const CustomKey& k : kCustomKeys) {
          valid += valid.empty() ? "" : ", ";
          valid += k.key;
        }
        throw std::invalid_argument("custom scenario: unknown --set key '" +
                                    key + "' (valid: " + valid + ")");
      }
      axes.emplace_back(key, std::vector<std::string>{});
      at = axes.end() - 1;
    }
    at->second.push_back(value);
  }
  // Defaults when a key was never set: the paper's grid (small in smoke
  // mode) and the protectionless-vs-SLP pair every built-in comparison
  // uses. Other keys default to the ExperimentConfig defaults untouched.
  const bool have_topology = std::any_of(
      axes.begin(), axes.end(),
      [](const auto& axis) { return axis.first == "topology"; });
  if (!have_topology) {
    axes.insert(axes.begin(),
                {"topology", {options.smoke ? "grid:7" : "grid:11"}});
  }
  const bool have_protocol = std::any_of(
      axes.begin(), axes.end(),
      [](const auto& axis) { return axis.first == "protocol"; });
  if (!have_protocol) {
    axes.emplace_back(
        "protocol",
        std::vector<std::string>{"protectionless-das", "slp-das"});
  }

  SweepGrid grid(base);
  for (const auto& [key, values] : axes) {
    const CustomKey& custom_key = *std::find_if(
        std::begin(kCustomKeys), std::end(kCustomKeys),
        [&key = key](const CustomKey& k) { return key == k.key; });
    std::vector<SweepGrid::AxisValue> axis_values;
    axis_values.reserve(values.size());
    for (const std::string& value : values) {
      axis_values.push_back(custom_key.make_value(value));
    }
    // The protocol axis is unseeded so compared protocols face identical
    // per-run seed streams, like every built-in comparison scenario.
    grid.axis(key, std::move(axis_values), /*seeded=*/key != "protocol");
  }
  return grid.expand();
}

int report_custom(std::ostream& out, const SweepJson& document,
                  const ScenarioOptions&) {
  using metrics::Table;
  const int runs = document.cells.empty() ? 0 : document.cells.front().runs;
  out << "Custom experiment (" << runs
      << " runs per cell; cells carry their full config specs in the JSON "
         "document)\n\n";
  Table table({"cell", "capture", "95% CI", "delivery", "latency",
               "msgs/node"});
  for (const SweepJsonCell& cell : document.cells) {
    table.add_row(
        {cell.label, Table::percent_cell(cell.capture_ratio),
         "[" + Table::percent_cell(cell.capture_wilson95_low) + ", " +
             Table::percent_cell(cell.capture_wilson95_high) + "]",
         Table::percent_cell(cell.delivery_ratio.mean),
         Table::cell(cell.delivery_latency_s.mean, 2) + "s",
         Table::cell(cell.control_messages_per_node.mean +
                         cell.normal_messages_per_node.mean,
                     1)});
  }
  table.print(out);
  out << "\nConfigs:\n";
  for (const SweepJsonCell& cell : document.cells) {
    out << "  " << cell.label << ": ";
    if (cell.has_config) {
      out << "topology=" << cell.config_topology << " protocol="
          << cell.config_protocol << " attacker=" << cell.config_attacker
          << " radio=" << cell.config_radio;
    } else {
      out << "(legacy document without a config block)";
    }
    out << '\n';
  }
  return 0;
}

}  // namespace

void register_custom(ScenarioRegistry& registry) {
  Scenario scenario;
  scenario.name = "custom";
  scenario.reference = "user-defined (spec grammar, README)";
  scenario.summary =
      "CLI-composed experiment: axes from repeated --set key=value";
  scenario.default_runs = 20;
  scenario.default_seed = 4242;
  scenario.accepts_sets = true;
  scenario.make_cells = make_custom_cells;
  scenario.report = report_custom;
  registry.add(std::move(scenario));
}

}  // namespace slpdas::core::scenarios
