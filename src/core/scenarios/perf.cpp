// Performance scenarios:
//
//   * perf_sim    — throughput of the discrete-event simulator substrate:
//                   full protocol runs per second across network sizes,
//                   the figure of merit that makes the 100+ seed capture
//                   experiments laptop-feasible. Measured straight off
//                   the sweep's per-cell wall clocks.
//   * perf_verify — cost of the VerifySchedule decision procedure
//                   (Algorithm 1) and the Definition 1-3 checkers: the
//                   sweep runs full experiments with the checkers on,
//                   and the report micro-times the verifier variants on
//                   centralized schedules for the same grids.
#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "slpdas/das/centralized.hpp"
#include "slpdas/metrics/table.hpp"
#include "slpdas/verify/das_checker.hpp"
#include "slpdas/verify/safety_period.hpp"
#include "slpdas/verify/verify_schedule.hpp"

namespace slpdas::core::scenarios {

namespace {

// ---------------------------------------------------------------------------
// perf_sim
// ---------------------------------------------------------------------------

std::vector<SweepCell> make_perf_sim_cells(const ScenarioOptions& options) {
  ExperimentConfig base;
  base.radio = RadioKind::kCasinoLab;
  base.check_schedules = false;

  SweepGrid grid(base);
  grid.axis("side", side_axis(options.smoke ? std::vector<int>{7}
                                            : std::vector<int>{11, 15, 21}));
  grid.axis("protocol", protocol_pair_axis());
  return grid.expand();
}

int report_perf_sim(std::ostream& out, const SweepJson& document,
                    const ScenarioOptions&) {
  using metrics::Table;
  out << "Simulator throughput: protocol runs and simulator events per "
         "second per grid cell\n\n";
  Table table({"cell", "runs", "wall", "runs/s", "events", "Mev/s"});
  for (const SweepJsonCell& cell : document.cells) {
    table.add_row(
        {cell.label, std::to_string(cell.runs),
         cell.wall_seconds > 0.0 ? Table::cell(cell.wall_seconds, 2) + "s"
                                 : "-",
         cell.wall_seconds > 0.0
             ? Table::cell(cell.runs / cell.wall_seconds, 2)
             : "-",
         cell.has_perf ? std::to_string(cell.perf_events) : "-",
         cell.has_perf && cell.perf_events_per_sec > 0.0
             ? Table::cell(cell.perf_events_per_sec / 1e6, 2)
             : "-"});
  }
  table.print(out);
  if (document.wall_seconds > 0.0) {
    std::uint64_t total_runs = 0;
    std::uint64_t total_events = 0;
    for (const SweepJsonCell& cell : document.cells) {
      total_runs += static_cast<std::uint64_t>(cell.runs);
      total_events += cell.perf_events;
    }
    out << "\noverall: " << total_runs << " runs in "
        << Table::cell(document.wall_seconds, 2) << "s on "
        << document.threads << " threads = "
        << Table::cell(static_cast<double>(total_runs) /
                           document.wall_seconds,
                       2)
        << " runs/s";
    if (total_events > 0) {
      out << "\nevents/sec: " << total_events << " events in "
          << Table::cell(document.wall_seconds, 2) << "s = "
          << Table::cell(static_cast<double>(total_events) /
                             document.wall_seconds / 1e6,
                         2)
          << " M events/s";
    }
    out << '\n';
  }
  out << "\nNote: cells share one thread pool, so per-cell wall clocks "
         "overlap; the overall line is the honest throughput figure. Run "
         "with --deterministic to zero timings for reproducible JSON "
         "instead (which also omits the per-cell perf blocks).\n";
  return 0;
}

// ---------------------------------------------------------------------------
// perf_verify
// ---------------------------------------------------------------------------

std::vector<SweepCell> make_perf_verify_cells(const ScenarioOptions& options) {
  ExperimentConfig base;
  base.protocol = ProtocolKind::kProtectionlessDas;
  base.radio = RadioKind::kCasinoLab;
  base.check_schedules = true;  // time full runs WITH the Def 1-3 checkers

  SweepGrid grid(base);
  grid.axis("side", side_axis(options.smoke ? std::vector<int>{7}
                                            : std::vector<int>{11, 15}));
  return grid.expand();
}

/// Mean milliseconds per call over `reps` calls of `fn`.
template <typename Fn>
double time_ms(int reps, Fn&& fn) {
  // slpdas-lint: allow(wall-clock): measures verification-engine cost, a reported metric, never a simulation input
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) {
    fn();
  }
  // slpdas-lint: allow(wall-clock): perf-telemetry end timestamp
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count() /
         reps;
}

int report_perf_verify(std::ostream& out, const SweepJson& document,
                       const ScenarioOptions& options) {
  using metrics::Table;
  out << "Verification cost: Algorithm 1 engines and Definition 1-3 "
         "checkers on centralized schedules\n\n";
  const int reps = options.smoke ? 2 : 10;
  Table table({"grid", "procedure", "mean ms/call"});
  for (const std::string& side_text : axis_values(document, "side")) {
    const int side = parse_side_label(side_text);
    const wsn::Topology topology = wsn::make_grid(side);
    const mac::Schedule schedule =
        das::build_centralized_das(topology.graph, topology.sink).schedule;
    const verify::SafetyPeriod safety = verify::compute_safety_period(
        topology.graph, topology.source, topology.sink);
    const std::string grid_label = side_text + "x" + side_text;

    verify::VerifyAttacker attacker;
    attacker.start = topology.sink;
    table.add_row({grid_label, "verify_schedule (0-1 BFS)",
                   Table::cell(time_ms(reps, [&] {
                                 (void)verify::verify_schedule(
                                     topology.graph, schedule, attacker,
                                     safety.periods, topology.source);
                               }),
                               3)});
    table.add_row({grid_label, "verify_schedule_exhaustive (DFS)",
                   Table::cell(time_ms(reps, [&] {
                                 (void)verify::verify_schedule_exhaustive(
                                     topology.graph, schedule, attacker,
                                     safety.periods, topology.source);
                               }),
                               3)});
    verify::VerifyAttacker worst;
    worst.start = topology.sink;
    worst.policy = verify::DPolicy::kAnyHeard;
    worst.messages_per_move = 2;
    table.add_row({grid_label, "verify_schedule (any-heard, R=2)",
                   Table::cell(time_ms(reps, [&] {
                                 (void)verify::verify_schedule(
                                     topology.graph, schedule, worst,
                                     safety.periods, topology.source);
                               }),
                               3)});
    table.add_row({grid_label, "check_strong_das",
                   Table::cell(time_ms(reps, [&] {
                                 (void)verify::check_strong_das(
                                     topology.graph, schedule, topology.sink);
                               }),
                               3)});
    table.add_row({grid_label, "build_centralized_das",
                   Table::cell(time_ms(reps, [&] {
                                 (void)das::build_centralized_das(
                                     topology.graph, topology.sink);
                               }),
                               3)});
  }
  table.print(out);

  out << "\nFull-run cost with the Definition 1-3 checkers enabled "
         "(sweep cells):\n";
  for (const SweepJsonCell& cell : document.cells) {
    out << "  " << cell.label << ": " << cell.runs << " runs";
    if (cell.wall_seconds > 0.0) {
      out << " in " << Table::cell(cell.wall_seconds, 2) << "s";
    }
    out << ", weak-DAS failures " << cell.weak_das_failures << "/"
        << cell.runs << "\n";
  }
  return 0;
}

}  // namespace

void register_perf(ScenarioRegistry& registry) {
  {
    Scenario scenario;
    scenario.name = "perf_sim";
    scenario.reference = "README, Simulator internals";
    scenario.summary = "simulator throughput: runs/sec and events/sec";
    scenario.default_runs = 20;
    scenario.default_seed = 101;
    scenario.make_cells = make_perf_sim_cells;
    scenario.report = report_perf_sim;
    registry.add(std::move(scenario));
  }
  {
    Scenario scenario;
    scenario.name = "perf_verify";
    scenario.reference = "Algorithm 1 / Definitions 1-3";
    scenario.summary = "verifier and checker micro-timings";
    scenario.default_runs = 10;
    scenario.default_seed = 1;
    scenario.make_cells = make_perf_verify_cells;
    scenario.report = report_perf_verify;
    registry.add(std::move(scenario));
  }
}

}  // namespace slpdas::core::scenarios
