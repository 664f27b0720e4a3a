// Internal helpers shared by the built-in scenario definitions. Not
// installed; scenario registrations are reached through
// core::register_builtin_scenarios().
#pragma once

#include <string>
#include <vector>

#include "slpdas/core/scenario.hpp"
#include "slpdas/wsn/topology.hpp"

namespace slpdas::core::scenarios {

/// Search distances the fig5 scenarios run at (paper Table I's SD row).
/// table1 checks its SD row against these, so a drifting fig5 default
/// fails loudly there instead of silently changing the published figure.
inline constexpr int kFig5aSearchDistance = 3;
inline constexpr int kFig5bSearchDistance = 5;

void register_fig5(ScenarioRegistry& registry);
void register_comparison(ScenarioRegistry& registry);
void register_ablations(ScenarioRegistry& registry);
void register_tables(ScenarioRegistry& registry);
void register_perf(ScenarioRegistry& registry);
void register_scaling(ScenarioRegistry& registry);
void register_custom(ScenarioRegistry& registry);

/// The "side" axis over `sides`: each value's label fragment is the
/// decimal side, its mutator installs the matching square-grid spec.
[[nodiscard]] std::vector<SweepGrid::AxisValue> side_axis(
    const std::vector<int>& sides);

/// The protectionless-vs-SLP protocol pair. Added with `seeded = false`
/// wherever both protocols should face identical per-run seed streams
/// (common random numbers), which keeps "reduction" columns low-variance.
[[nodiscard]] std::vector<SweepGrid::AxisValue> protocol_pair_axis();

/// One row of a protectionless-vs-SLP report: a value of the row axis and
/// the two protocol cells that share it.
struct PairedRow {
  std::string value;
  const SweepJsonCell& base;  ///< protectionless DAS
  const SweepJsonCell& slp;   ///< SLP DAS
};

/// The rows of a document swept over `row_axis` x protocol_pair_axis(),
/// in grid order. Cells are found by coordinates, so a reordering of the
/// grid axes fails loudly (require_cell) instead of mispairing.
[[nodiscard]] std::vector<PairedRow> paired_rows(const SweepJson& document,
                                                 const std::string& row_axis);

/// 1 - slp/base when base > 0, else 0 — the paper's reduction factor.
[[nodiscard]] double reduction(double base_ratio, double slp_ratio);

/// Distinct values of `axis` across the document's cells, in first-seen
/// (i.e. grid) order.
[[nodiscard]] std::vector<std::string> axis_values(const SweepJson& document,
                                                   const std::string& axis);

/// Parses a "side" axis label into a positive grid side, and a "cs"
/// label into a safety factor inside verify::kSafetyFactorRange. Reports
/// consume labels from reloaded or merged documents, so a hand-edited or
/// corrupted coordinate ("-5", "4x4", "nan") must fail loudly here: each
/// throws std::invalid_argument naming the bad label.
[[nodiscard]] int parse_side_label(const std::string& label);
[[nodiscard]] double parse_cs_label(const std::string& label);

}  // namespace slpdas::core::scenarios
