// Table scenarios:
//
//   * table1           — paper Table I parameter inventory: prints the
//                        values this library actually uses next to the
//                        paper's and fails loudly if they ever drift;
//                        the sweep cross-checks that ideal-radio setups
//                        build complete, valid strong-DAS schedules,
//   * message_overhead — Section VI-E / abstract claim that SLP DAS adds
//                        "negligible message overhead": control and data
//                        messages per node across the paper's grids.
#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "slpdas/metrics/table.hpp"
#include "slpdas/sim/time.hpp"

namespace slpdas::core::scenarios {

namespace {

// ---------------------------------------------------------------------------
// table1
// ---------------------------------------------------------------------------

std::vector<SweepCell> make_table1_cells(const ScenarioOptions& options) {
  ExperimentConfig base;
  base.protocol = ProtocolKind::kProtectionlessDas;
  base.radio = RadioKind::kIdeal;  // deterministic setup validity check
  base.check_schedules = true;

  SweepGrid grid(base);
  grid.axis("side", side_axis(options.smoke ? std::vector<int>{7}
                                            : std::vector<int>{11, 15, 21}));
  return grid.expand();
}

int report_table1(std::ostream& out, const SweepJson& document,
                  const ScenarioOptions&) {
  using metrics::Table;
  const Parameters p;
  out << "Reproduction of Table I: parameters for protectionless and SLP "
         "DAS\n\n";

  Table table({"parameter", "symbol", "paper value", "library default", "ok"});
  int mismatches = 0;
  const auto row = [&](const std::string& name, const char* symbol,
                       const std::string& paper, const std::string& ours) {
    const bool ok = paper == ours;
    mismatches += ok ? 0 : 1;
    table.add_row({name, symbol, paper, ours, ok ? "yes" : "NO"});
  };

  row("Source period", "Psrc", "5.5s", Table::cell(p.source_period_s, 1) + "s");
  row("Slot period", "Pslot", "0.05s", Table::cell(p.slot_period_s, 2) + "s");
  row("Dissemination period", "Pdiss", "0.5s",
      Table::cell(p.dissem_period_s, 1) + "s");
  row("Number of slots", "slots", "100", std::to_string(p.slots));
  row("Minimum setup periods", "MSP", "80",
      std::to_string(p.minimum_setup_periods));
  row("Neighbour discovery periods", "NDP", "4",
      std::to_string(p.neighbor_discovery_periods));
  row("Dissemination timeout", "DT", "5",
      std::to_string(p.dissemination_timeout));
  // SD is a sweep axis; the comparison reads the fig5 scenarios' ACTUAL
  // search distances (not a re-typed literal), so a drifting fig5
  // default fails this row.
  row("Search distance (fig5a, fig5b)", "SD", "3, 5",
      std::to_string(kFig5aSearchDistance) + ", " +
          std::to_string(kFig5bSearchDistance));
  row("Search distance default", "SD", "3",
      std::to_string(p.search_distance));
  // CL is derived per topology; show the grids the sweep ran.
  for (const std::string& side_text : axis_values(document, "side")) {
    const int side = parse_side_label(side_text);
    const auto grid = wsn::make_grid(side);
    row("Change length (" + side_text + "x" + side_text + ", SD=3)", "CL",
        std::to_string(2 * (side / 2) - 3),  // Delta_ss - SD
        std::to_string(p.resolved_change_length(grid)));
  }
  row("Safety factor", "Cs", "1.5", Table::cell(p.safety_factor, 1));

  table.print(out);

  // Derived consistency check the paper relies on: one TDMA period equals
  // the source period.
  const bool period_consistent =
      p.frame().period() == sim::from_seconds(p.source_period_s);
  out << "\nderived: TDMA period == source period: "
      << (period_consistent ? "yes" : "NO") << '\n';

  // Sweep cross-check: with an ideal radio, every Phase 1 setup must
  // complete and satisfy weak DAS (Definition 2). Strong DAS is NOT
  // guaranteed by the distributed construction (only the centralized
  // top-down one; see abl_schedulers), so it stays informational.
  int invalid_setups = 0;
  int strong_failures = 0;
  for (const SweepJsonCell& cell : document.cells) {
    invalid_setups += cell.schedule_incomplete_runs + cell.weak_das_failures;
    strong_failures += cell.strong_das_failures;
  }
  out << "derived: ideal-radio setups build complete, weak-valid DAS: "
      << (invalid_setups == 0 ? "yes" : "NO") << " (strong-DAS failures: "
      << strong_failures << ", expected for distributed Phase 1)\n";

  if (mismatches != 0 || !period_consistent || invalid_setups != 0) {
    out << mismatches << " mismatch(es) against Table I, " << invalid_setups
        << " invalid setup(s)\n";
    return 1;
  }
  out << "all parameters match Table I\n";
  return 0;
}

// ---------------------------------------------------------------------------
// message_overhead
// ---------------------------------------------------------------------------

std::vector<SweepCell> make_overhead_cells(const ScenarioOptions& options) {
  ExperimentConfig base;
  base.radio = RadioKind::kCasinoLab;
  base.check_schedules = false;

  SweepGrid grid(base);
  grid.axis("side", side_axis(options.smoke ? std::vector<int>{7}
                                            : std::vector<int>{11, 15, 21}));
  grid.axis("protocol", protocol_pair_axis(), /*seeded=*/false);
  return grid.expand();
}

int report_overhead(std::ostream& out, const SweepJson& document,
                    const ScenarioOptions&) {
  using metrics::Table;
  out << "Reproduction of the 'negligible message overhead' claim (Section "
         "VI-E): control messages per node over a full run\n\n";

  Table table({"network size", "base ctrl/node", "slp ctrl/node",
               "extra msgs/node", "base total/node", "slp total/node",
               "total overhead"});
  double worst_overhead = 0.0;
  for (const auto& [side, base, slp] : paired_rows(document, "side")) {
    const double base_ctrl = base.control_messages_per_node.mean;
    const double slp_ctrl = slp.control_messages_per_node.mean;
    const double base_total = base_ctrl + base.normal_messages_per_node.mean;
    const double slp_total = slp_ctrl + slp.normal_messages_per_node.mean;
    const double overhead =
        base_total > 0.0 ? (slp_total - base_total) / base_total : 0.0;
    worst_overhead = std::max(worst_overhead, overhead);
    table.add_row({side + "x" + side, Table::cell(base_ctrl, 2),
                   Table::cell(slp_ctrl, 2),
                   Table::cell(slp_ctrl - base_ctrl, 2),
                   Table::cell(base_total, 2), Table::cell(slp_total, 2),
                   Table::percent_cell(overhead)});
  }
  table.print(out);
  out << "\nworst-case total message overhead: "
      << Table::percent_cell(worst_overhead)
      << " (paper claim: negligible). The extra messages are the "
         "SEARCH/CHANGE walk plus the update disseminations repairing the "
         "decoy subtree -- a one-off cost of a few messages per node, "
         "independent of run length.\n";
  return 0;
}

}  // namespace

void register_tables(ScenarioRegistry& registry) {
  {
    Scenario scenario;
    scenario.name = "table1";
    scenario.reference = "Table I";
    scenario.summary = "parameter inventory + ideal-radio setup validity";
    scenario.default_runs = 1;
    scenario.default_seed = 1;
    scenario.make_cells = make_table1_cells;
    scenario.report = report_table1;
    registry.add(std::move(scenario));
  }
  {
    Scenario scenario;
    scenario.name = "message_overhead";
    scenario.reference = "Section VI-E";
    scenario.summary = "control/data message overhead of the decoy";
    scenario.default_runs = 40;
    scenario.default_seed = 42;
    scenario.make_cells = make_overhead_cells;
    scenario.report = report_overhead;
    registry.add(std::move(scenario));
  }
}

}  // namespace slpdas::core::scenarios
