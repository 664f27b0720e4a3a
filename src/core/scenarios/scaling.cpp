// Scenario `scal_grid` — grid-size scaling of the full SLP-DAS stack.
//
// Sweeps square grids from side 11 to 41 (odd steps, so the sink stays on
// the centre cell) under the complete three-phase protocol against the
// paper's classic (1,0,1)-first-heard attacker, reporting how the capture
// ratio evolves with network size alongside the simulator's events-per-
// second rate at each size — the scenario-diversity payoff of the typed
// event core: a 41x41 grid (1681 nodes) per-run workload that was
// previously too slow to sweep routinely.
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "slpdas/metrics/table.hpp"

namespace slpdas::core::scenarios {

namespace {

std::vector<SweepCell> make_scal_grid_cells(const ScenarioOptions& options) {
  ExperimentConfig base;
  base.protocol = ProtocolKind::kSlpDas;
  base.parameters = Parameters{};  // Table I defaults
  base.radio = RadioKind::kCasinoLab;
  base.check_schedules = false;
  // base.attacker stays the default (1,0,1)-first-heard classic attacker.

  std::vector<int> sides;
  if (options.smoke) {
    sides = {11};
  } else {
    for (int side = 11; side <= 41; side += 2) {
      sides.push_back(side);
    }
  }

  SweepGrid grid(base);
  grid.axis("side", side_axis(sides));
  return grid.expand();
}

int report_scal_grid(std::ostream& out, const SweepJson& document,
                     const ScenarioOptions&) {
  using metrics::Table;
  const int runs = document.cells.empty() ? 0 : document.cells.front().runs;
  out << "Grid scaling: SLP-DAS capture ratio and simulator rate vs "
         "network size (classic (1,0,1)-first-heard attacker, " << runs
      << " runs per point, casino-lab noise)\n\n";
  Table table({"side", "nodes", "capture", "95% CI", "wall", "Mev/s"});
  for (const SweepJsonCell& cell : document.cells) {
    const std::string* side = cell.coordinate("side");
    const long long nodes =
        side == nullptr
            ? 0
            : static_cast<long long>(parse_side_label(*side)) *
                  parse_side_label(*side);
    table.add_row(
        {side == nullptr ? "?" : *side, std::to_string(nodes),
         Table::cell(cell.capture_ratio, 3),
         "[" + Table::cell(cell.capture_wilson95_low, 3) + ", " +
             Table::cell(cell.capture_wilson95_high, 3) + "]",
         cell.wall_seconds > 0.0 ? Table::cell(cell.wall_seconds, 2) + "s"
                                 : "-",
         cell.has_perf && cell.perf_events_per_sec > 0.0
             ? Table::cell(cell.perf_events_per_sec / 1e6, 2)
             : "-"});
  }
  table.print(out);
  out << "\nCapture ratio falls with size (the attacker has further to "
         "travel inside one safety period); the Mev/s column tracks how "
         "the event core holds up as per-run state grows.\n";
  return 0;
}

}  // namespace

void register_scaling(ScenarioRegistry& registry) {
  Scenario scenario;
  scenario.name = "scal_grid";
  scenario.reference = "Section VI setup, scaled past the paper's grids";
  scenario.summary = "SLP-DAS capture ratio and events/sec, side 11..41";
  scenario.default_runs = 20;
  scenario.default_seed = 401;
  scenario.make_cells = make_scal_grid_cells;
  scenario.report = report_scal_grid;
  registry.add(std::move(scenario));
}

}  // namespace slpdas::core::scenarios
