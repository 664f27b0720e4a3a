// Scenarios `fig5a`/`fig5b` (paper Figure 5): capture ratio vs network
// size at search distance SD = 3 / SD = 5.
//
// Reproduces the paper's evaluation setup (Section VI): square grids of
// side 11/15/21 with the source top-left and the sink at the centre,
// Table I parameters, a (1,0,1,sink,first-heard)-attacker, safety factor
// 1.5, and the synthetic casino-lab noise model. The report prints the
// capture ratios Figure 5 plots plus the aggregate reduction factor
// backing the paper's "reduces the capture ratio by 50%" headline.
#include <ostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "slpdas/metrics/table.hpp"

namespace slpdas::core::scenarios {

namespace {

std::vector<SweepCell> make_fig5_cells(const ScenarioOptions& options,
                                       int default_sd) {
  const int sd = options.search_distance > 0 ? options.search_distance
                                             : default_sd;
  // Smoke mode keeps the protocol pairing but shrinks to one small grid;
  // side 7 still satisfies CL = Delta_ss - SD >= 1 for both SD values.
  const std::vector<int> sides =
      options.smoke ? std::vector<int>{7} : std::vector<int>{11, 15, 21};

  ExperimentConfig base;
  base.parameters = Parameters{};  // Table I defaults
  base.parameters.search_distance = sd;
  base.radio = RadioKind::kCasinoLab;
  base.check_schedules = false;  // measured by tests; skip for speed

  SweepGrid grid(base);
  // SD rides along as a single-value axis so the document records which
  // search distance produced it — `slpdas_bench report` must not guess.
  grid.axis("sd", {{std::to_string(sd), nullptr}});
  grid.axis("side", side_axis(sides));
  // The protocol axis stays out of seed derivation: protectionless and
  // SLP DAS see identical per-run seed streams per side (common random
  // numbers), which keeps the "reduction" column low-variance.
  grid.axis("protocol", protocol_pair_axis(), /*seeded=*/false);
  return grid.expand();
}

int report_fig5(std::ostream& out, const SweepJson& document,
                const char* figure_name) {
  using metrics::Table;
  // The document records its own SD (an axis since schema v2); guessing
  // it from CLI options would misreport reloaded --sd runs.
  const std::vector<std::string> sds = axis_values(document, "sd");
  const std::string sd = sds.empty() ? "?" : sds.front();
  const int runs = document.cells.empty() ? 0 : document.cells.front().runs;
  out << "Reproduction of " << figure_name
      << ": capture ratio vs network size (SD = " << sd << ", " << runs
      << " runs per point, casino-lab noise)\n\n";

  Table table({"network size", "protectionless DAS", "SLP DAS", "reduction",
               "base 95% CI", "slp 95% CI"});
  double base_total = 0.0;
  double slp_total = 0.0;
  for (const auto& [side, base, slp] : paired_rows(document, "side")) {
    base_total += base.capture_ratio;
    slp_total += slp.capture_ratio;
    table.add_row(
        {side + "x" + side, Table::percent_cell(base.capture_ratio),
         Table::percent_cell(slp.capture_ratio),
         Table::percent_cell(reduction(base.capture_ratio, slp.capture_ratio)),
         "[" + Table::percent_cell(base.capture_wilson95_low) + ", " +
             Table::percent_cell(base.capture_wilson95_high) + "]",
         "[" + Table::percent_cell(slp.capture_wilson95_low) + ", " +
             Table::percent_cell(slp.capture_wilson95_high) + "]"});
  }
  table.print(out);

  const double aggregate_reduction = reduction(base_total, slp_total);
  out << "\naggregate capture-ratio reduction (claim_50pct): "
      << Table::percent_cell(aggregate_reduction) << " (paper: ~50%)\n";
  return 0;
}

Scenario make_fig5_scenario(const char* name, const char* figure_name,
                            int default_sd) {
  Scenario scenario;
  scenario.name = name;
  scenario.reference = figure_name;
  scenario.summary = std::string("capture ratio vs network size, SD = ") +
                     std::to_string(default_sd);
  scenario.default_runs = 100;
  scenario.default_seed = 2017;
  scenario.accepts_search_distance = true;
  scenario.make_cells = [default_sd](const ScenarioOptions& options) {
    return make_fig5_cells(options, default_sd);
  };
  scenario.report = [figure_name](std::ostream& out,
                                  const SweepJson& document,
                                  const ScenarioOptions&) {
    return report_fig5(out, document, figure_name);
  };
  return scenario;
}

}  // namespace

void register_fig5(ScenarioRegistry& registry) {
  registry.add(
      make_fig5_scenario("fig5a", "Figure 5(a)", kFig5aSearchDistance));
  registry.add(
      make_fig5_scenario("fig5b", "Figure 5(b)", kFig5bSearchDistance));
}

}  // namespace slpdas::core::scenarios
