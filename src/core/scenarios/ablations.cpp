// Ablation scenarios beyond the paper's headline figures:
//
//   * abl_noise      — radio/loss-model calibration (the casino-lab RSSI
//                      trace is replaced by a synthetic loss process, so
//                      its effect is measured rather than assumed),
//   * abl_attacker   — attacker strength over the generic (R,H,M,s0,D)
//                      model of Figure 1,
//   * abl_safety     — the safety factor Cs of Eq. 1,
//   * abl_schedulers — DAS construction: distributed Phase 1 vs
//                      centralized top-down vs bottom-up first-fit, on
//                      compactness and attacker exposure.
#include <cstdint>
#include <iterator>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "slpdas/das/centralized.hpp"
#include "slpdas/das/first_fit.hpp"
#include "slpdas/mac/schedule_io.hpp"
#include "slpdas/metrics/table.hpp"
#include "slpdas/rng.hpp"
#include "slpdas/sim/simulator.hpp"
#include "slpdas/verify/reachability.hpp"
#include "slpdas/verify/safety_period.hpp"

namespace slpdas::core::scenarios {

namespace {

// ---------------------------------------------------------------------------
// abl_noise
// ---------------------------------------------------------------------------

struct RadioRow {
  const char* value;
  const char* display;
  void (*apply)(ExperimentConfig&);
};

const RadioRow kRadioRows[] = {
    {"ideal", "ideal (no loss)",
     [](ExperimentConfig& c) { c.radio = RadioKind::kIdeal; }},
    {"iid-2pct", "iid loss 2%",
     [](ExperimentConfig& c) {
       c.radio = RadioKind::kLossy;
       c.loss_probability = 0.02;
     }},
    {"iid-5pct", "iid loss 5%",
     [](ExperimentConfig& c) {
       c.radio = RadioKind::kLossy;
       c.loss_probability = 0.05;
     }},
    {"iid-10pct", "iid loss 10%",
     [](ExperimentConfig& c) {
       c.radio = RadioKind::kLossy;
       c.loss_probability = 0.10;
     }},
    {"iid-20pct", "iid loss 20%",
     [](ExperimentConfig& c) {
       c.radio = RadioKind::kLossy;
       c.loss_probability = 0.20;
     }},
    {"casino-lab", "casino-lab bursty (default)",
     [](ExperimentConfig& c) { c.radio = RadioKind::kCasinoLab; }},
    {"casino-heavy", "casino-lab heavy bursts",
     [](ExperimentConfig& c) {
       c.radio = RadioKind::kCasinoLab;
       c.casino.burst_loss = 0.8;
       c.casino.mean_burst = sim::from_seconds(3.0);
     }},
};

std::vector<SweepCell> make_noise_cells(const ScenarioOptions& options) {
  ExperimentConfig base;
  base.check_schedules = false;

  std::vector<SweepGrid::AxisValue> radio_values;
  for (const RadioRow& row : kRadioRows) {
    if (options.smoke && std::string(row.value) != "ideal" &&
        std::string(row.value) != "casino-lab") {
      continue;  // smoke: one deterministic and one bursty model
    }
    radio_values.push_back({row.value, row.apply});
  }
  SweepGrid grid(base);
  grid.axis("side", side_axis({options.smoke ? 7 : 11}));
  grid.axis("radio", std::move(radio_values));
  grid.axis("protocol", protocol_pair_axis(), /*seeded=*/false);
  return grid.expand();
}

int report_noise(std::ostream& out, const SweepJson& document,
                 const ScenarioOptions&) {
  using metrics::Table;
  const std::vector<std::string> sides = axis_values(document, "side");
  const std::string side = sides.empty() ? "?" : sides.front();
  const int runs = document.cells.empty() ? 0 : document.cells.front().runs;
  out << "Ablation: radio/noise model on the " << side << "x" << side
      << " grid (" << runs << " runs per cell)\n\n";
  Table table({"radio model", "protectionless DAS", "SLP DAS", "reduction",
               "incomplete setups"});
  for (const auto& [radio, base, slp] : paired_rows(document, "radio")) {
    const char* display = radio.c_str();
    for (const RadioRow& row : kRadioRows) {
      if (radio == row.value) {
        display = row.display;
        break;
      }
    }
    table.add_row({display, Table::percent_cell(base.capture_ratio),
                   Table::percent_cell(slp.capture_ratio),
                   Table::percent_cell(
                       reduction(base.capture_ratio, slp.capture_ratio)),
                   std::to_string(base.schedule_incomplete_runs) + "/" +
                       std::to_string(base.runs)});
  }
  table.print(out);
  out << "\nExpected shape: the SLP reduction persists across radio models; "
         "very heavy loss erodes both the decoy setup and the attacker's "
         "tracing ability.\n";
  return 0;
}

// ---------------------------------------------------------------------------
// abl_attacker
// ---------------------------------------------------------------------------

struct AttackerRow {
  const char* value;
  const char* display;
  int messages_per_move;
  int history_size;
  int moves_per_period;
  attacker::Decision decision;
};

const AttackerRow kAttackerRows[] = {
    {"1-0-1-first-heard", "(1,0,1) first-heard (paper)", 1, 0, 1,
     attacker::Decision::kFirstHeard},
    {"2-0-1-min-slot", "(2,0,1) min-slot", 2, 0, 1,
     attacker::Decision::kMinSlot},
    {"1-0-2-first-heard", "(1,0,2) first-heard", 1, 0, 2,
     attacker::Decision::kFirstHeard},
    {"2-2-1-history-avoiding", "(2,2,1) history-avoiding", 2, 2, 1,
     attacker::Decision::kHistoryAvoiding},
    {"2-4-2-history-avoiding", "(2,4,2) history-avoiding", 2, 4, 2,
     attacker::Decision::kHistoryAvoiding},
    {"2-0-1-random", "(2,0,1) random", 2, 0, 1,
     attacker::Decision::kRandom},
};

std::vector<SweepCell> make_attacker_cells(const ScenarioOptions& options) {
  ExperimentConfig base;
  base.radio = RadioKind::kCasinoLab;
  base.check_schedules = false;

  std::vector<SweepGrid::AxisValue> attacker_values;
  const std::size_t limit =
      options.smoke ? 2 : std::size(kAttackerRows);  // smoke: paper + min-slot
  for (std::size_t i = 0; i < limit; ++i) {
    const AttackerRow& row = kAttackerRows[i];
    attacker_values.push_back({row.value, [row](ExperimentConfig& config) {
                                 config.attacker.messages_per_move =
                                     row.messages_per_move;
                                 config.attacker.history_size =
                                     row.history_size;
                                 config.attacker.moves_per_period =
                                     row.moves_per_period;
                                 config.attacker.decision = row.decision;
                               }});
  }
  SweepGrid grid(base);
  grid.axis("side", side_axis({options.smoke ? 7 : 11}));
  grid.axis("attacker", std::move(attacker_values));
  grid.axis("protocol", protocol_pair_axis(), /*seeded=*/false);
  return grid.expand();
}

int report_attacker(std::ostream& out, const SweepJson& document,
                    const ScenarioOptions&) {
  using metrics::Table;
  const std::vector<std::string> sides = axis_values(document, "side");
  const std::string side = sides.empty() ? "?" : sides.front();
  const int runs = document.cells.empty() ? 0 : document.cells.front().runs;
  out << "Ablation: attacker strength on the " << side << "x" << side
      << " grid (" << runs << " runs per cell)\n\n";
  Table table({"attacker", "protectionless DAS", "SLP DAS", "reduction"});
  for (const auto& [attacker, base, slp] :
       paired_rows(document, "attacker")) {
    const char* display = attacker.c_str();
    for (const AttackerRow& row : kAttackerRows) {
      if (attacker == row.value) {
        display = row.display;
        break;
      }
    }
    table.add_row({display, Table::percent_cell(base.capture_ratio),
                   Table::percent_cell(slp.capture_ratio),
                   Table::percent_cell(
                       reduction(base.capture_ratio, slp.capture_ratio))});
  }
  table.print(out);
  out << "\nExpected shape: SLP DAS stays at or below the baseline for "
         "every strategic attacker. Curiosities worth noticing: (1,0,2) "
         "degenerates because its second move per period chases a "
         "later-slot transmission back UP the gradient (bouncing), and the "
         "random attacker is noise around small ratios for both "
         "protocols.\n";
  return 0;
}

// ---------------------------------------------------------------------------
// abl_safety
// ---------------------------------------------------------------------------

constexpr double kSafetyFactors[] = {1.1, 1.3, 1.5, 1.7, 1.9};

std::vector<SweepCell> make_safety_cells(const ScenarioOptions& options) {
  ExperimentConfig base;
  base.radio = RadioKind::kCasinoLab;
  base.check_schedules = false;

  std::vector<SweepGrid::AxisValue> cs_values;
  for (const double cs : kSafetyFactors) {
    if (options.smoke && cs != 1.5) {
      continue;  // smoke: the paper's Cs only
    }
    cs_values.push_back(
        {metrics::Table::cell(cs, 1), [cs](ExperimentConfig& config) {
           config.parameters.safety_factor = cs;
         }});
  }
  SweepGrid grid(base);
  grid.axis("side", side_axis({options.smoke ? 7 : 11}));
  grid.axis("cs", std::move(cs_values));
  grid.axis("protocol", protocol_pair_axis(), /*seeded=*/false);
  return grid.expand();
}

int report_safety(std::ostream& out, const SweepJson& document,
                  const ScenarioOptions&) {
  using metrics::Table;
  const std::vector<std::string> sides = axis_values(document, "side");
  const int side = sides.empty() ? 11 : parse_side_label(sides.front());
  const int runs = document.cells.empty() ? 0 : document.cells.front().runs;
  out << "Ablation: safety factor Cs (Eq. 1) on the " << side << "x" << side
      << " grid (" << runs << " runs per cell)\n\n";
  const wsn::Topology topology = wsn::make_grid(side);
  Table table({"Cs", "safety periods", "protectionless DAS", "SLP DAS",
               "reduction"});
  for (const auto& [cs_text, base, slp] : paired_rows(document, "cs")) {
    // Recompute Eq. 1 for this Cs so the table shows the actual safety
    // period the runs used (the same computation RunBatch's phase prefix
    // performs).
    const double cs = parse_cs_label(cs_text);
    const verify::SafetyPeriod safety = verify::compute_safety_period(
        topology.graph, topology.source, topology.sink, cs);
    table.add_row({cs_text, std::to_string(safety.periods),
                   Table::percent_cell(base.capture_ratio),
                   Table::percent_cell(slp.capture_ratio),
                   Table::percent_cell(
                       reduction(base.capture_ratio, slp.capture_ratio))});
  }
  table.print(out);
  out << "\nExpected shape: capture ratios grow with Cs for both protocols; "
         "the SLP schedule stays below the baseline throughout the "
         "admissible range.\n";
  return 0;
}

// ---------------------------------------------------------------------------
// abl_schedulers
// ---------------------------------------------------------------------------

std::vector<SweepCell> make_scheduler_cells(const ScenarioOptions& options) {
  ExperimentConfig base;
  base.protocol = ProtocolKind::kProtectionlessDas;
  base.radio = RadioKind::kCasinoLab;
  base.check_schedules = true;  // weak/strong DAS validity per seed

  SweepGrid grid(base);
  grid.axis("side", side_axis(options.smoke ? std::vector<int>{7}
                                            : std::vector<int>{11, 15}));
  return grid.expand();
}

struct Measured {
  mac::ScheduleStats stats;
  int exposed_nodes = 0;
};

Measured measure(const wsn::Topology& topology, const mac::Schedule& schedule) {
  Measured m;
  m.stats = mac::compute_stats(schedule);
  const auto safety = verify::compute_safety_period(
      topology.graph, topology.source, topology.sink);
  verify::VerifyAttacker attacker;
  attacker.start = topology.sink;
  const auto reach = verify::attacker_reachability(topology.graph, schedule,
                                                   attacker, safety.periods);
  m.exposed_nodes =
      static_cast<int>(reach.reached_within(safety.periods).size());
  return m;
}

/// Rebuilds the distributed Phase 1 schedule for one seed — the seed of
/// the cell's run 0, so the row is reproducible from the JSON document.
mac::Schedule distributed_schedule(const wsn::Topology& topology,
                                   std::uint64_t seed) {
  const Parameters parameters;
  sim::Simulator simulator(topology.graph, sim::make_casino_lab_noise(), seed);
  const auto config = parameters.das_config();
  for (wsn::NodeId n = 0; n < topology.graph.node_count(); ++n) {
    simulator.add_process(n, std::make_unique<das::ProtectionlessDas>(
                                 config, topology.sink, topology.source));
  }
  simulator.run_until(config.minimum_setup_periods * config.period());
  return das::extract_schedule(simulator);
}

int report_schedulers(std::ostream& out, const SweepJson& document,
                      const ScenarioOptions&) {
  using metrics::Table;
  out << "Ablation: DAS construction — compactness vs attacker exposure "
         "within the safety period\n\n";
  Table table({"grid", "scheduler", "slot band", "density",
               "exposed nodes (of N)", "mean span over seeds"});
  for (const std::string& side_text : axis_values(document, "side")) {
    const int side = parse_side_label(side_text);
    const SweepJsonCell& cell = require_cell(document, {{"side", side_text}});
    const wsn::Topology topology = wsn::make_grid(side);
    const std::string grid_label = side_text + "x" + side_text;
    const auto total = std::to_string(topology.graph.node_count());

    const std::uint64_t seed0 = derive_seed(cell.cell_seed, 0);
    const auto phase1 = measure(topology, distributed_schedule(topology,
                                                               seed0));
    table.add_row(
        {grid_label, "distributed Phase 1 (run-0 seed)",
         std::to_string(phase1.stats.min_slot) + ".." +
             std::to_string(phase1.stats.max_slot),
         Table::cell(phase1.stats.density, 2),
         std::to_string(phase1.exposed_nodes) + " / " + total,
         Table::cell(cell.slot_band_span.mean, 1) + " (" +
             std::to_string(cell.slot_band_span.count) + " seeds)"});

    const auto top_down = measure(
        topology,
        das::build_centralized_das(topology.graph, topology.sink).schedule);
    table.add_row({grid_label, "centralized top-down",
                   std::to_string(top_down.stats.min_slot) + ".." +
                       std::to_string(top_down.stats.max_slot),
                   Table::cell(top_down.stats.density, 2),
                   std::to_string(top_down.exposed_nodes) + " / " + total,
                   "-"});

    const auto first_fit = measure(
        topology,
        das::build_first_fit_das(topology.graph, topology.sink).schedule);
    table.add_row({grid_label, "bottom-up first-fit",
                   std::to_string(first_fit.stats.min_slot) + ".." +
                       std::to_string(first_fit.stats.max_slot),
                   Table::cell(first_fit.stats.density, 2),
                   std::to_string(first_fit.exposed_nodes) + " / " + total,
                   "-"});
  }
  table.print(out);
  out << "\nDistributed Phase 1 validity over the sweep seeds:";
  for (const SweepJsonCell& cell : document.cells) {
    out << " " << cell.label << ": incomplete "
        << cell.schedule_incomplete_runs << "/" << cell.runs << ", weak-DAS "
        << cell.weak_das_failures << "/" << cell.runs << ", strong-DAS "
        << cell.strong_das_failures << "/" << cell.runs << ";";
  }
  out << "\n\nReading: first-fit packs the band densely (low latency) but "
         "every construction leaves a min-slot gradient an attacker can "
         "descend; only the Phase 3 refinement (not shown here; see fig5a/"
         "fig5b) shapes WHERE that gradient leads.\n";
  return 0;
}

}  // namespace

void register_ablations(ScenarioRegistry& registry) {
  {
    Scenario scenario;
    scenario.name = "abl_noise";
    scenario.reference = "Section VI-A (casino-lab noise, substituted)";
    scenario.summary = "capture ratios vs radio model (ideal/iid/bursty)";
    scenario.default_runs = 150;
    scenario.default_seed = 13;
    scenario.make_cells = make_noise_cells;
    scenario.report = report_noise;
    registry.add(std::move(scenario));
  }
  {
    Scenario scenario;
    scenario.name = "abl_attacker";
    scenario.reference = "Figure 1 (generic (R,H,M,s0,D) attacker)";
    scenario.summary = "capture ratios vs attacker strength";
    scenario.default_runs = 150;
    scenario.default_seed = 7;
    scenario.make_cells = make_attacker_cells;
    scenario.report = report_attacker;
    registry.add(std::move(scenario));
  }
  {
    Scenario scenario;
    scenario.name = "abl_safety";
    scenario.reference = "Equation 1 (safety factor Cs)";
    scenario.summary = "capture ratios vs safety factor Cs";
    scenario.default_runs = 150;
    scenario.default_seed = 29;
    scenario.make_cells = make_safety_cells;
    scenario.report = report_safety;
    registry.add(std::move(scenario));
  }
  {
    Scenario scenario;
    scenario.name = "abl_schedulers";
    scenario.reference = "Definitions 2-3 (DAS construction)";
    scenario.summary = "Phase 1 vs centralized vs first-fit schedules";
    scenario.default_runs = 20;
    scenario.default_seed = 1;
    scenario.make_cells = make_scheduler_cells;
    scenario.report = report_schedulers;
    registry.add(std::move(scenario));
  }
}

}  // namespace slpdas::core::scenarios
