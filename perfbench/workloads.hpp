// The benchmark's three named workloads, as sweep grids.
//
//   grid_large  — the paper's grid topology at and beyond its largest size
//                 (grid:21/31/41 x protectionless-das/slp-das). Timer-heavy:
//                 the event queue, timer arming, reset_run and the DAS/SLP
//                 handlers do most of the work. One thread.
//   udisk_dense — a dense random unit disk (mean degree ~25) under all three
//                 protocols. Delivery-heavy: broadcast fan-out, radio draws
//                 and receive handlers dominate. One thread.
//   many_cells  — 144 small cells with schedule checks on, a result cache
//                 that starts each repetition a quarter full, and every cell
//                 streamed, folded, written and re-read. Per-cell fixed costs
//                 dominate (set-up, checkers, aggregation, record I/O,
//                 scheduling). A fixed pool of kManyCellsThreads workers.
//
// `tiny` shrinks each workload to a configuration that runs in well under a
// second, for the benchmark's self-test.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "slpdas/core/experiment.hpp"
#include "slpdas/core/sweep.hpp"

namespace perfbench {

inline constexpr int kManyCellsThreads = 2;

struct Workload {
  std::string name;
  std::vector<slpdas::core::SweepCell> cells;
  int threads = 1;
  /// Every cell is appended to a cell stream, which is folded afterwards.
  bool stream = false;
  /// When > 0, cells whose grid index is a multiple of this are stored in
  /// the result cache before every repetition (the rest miss and store).
  int warm_every = 0;
};

namespace detail {

inline slpdas::core::SweepGrid::AxisValue topology_value(const std::string& spec) {
  return {spec, [spec](slpdas::core::ExperimentConfig& config) {
            config.topology = slpdas::wsn::TopologySpec::parse(spec);
          }};
}

inline std::vector<slpdas::core::SweepGrid::AxisValue> protocol_values(
    const std::vector<std::string>& specs) {
  std::vector<slpdas::core::SweepGrid::AxisValue> values;
  for (const std::string& spec : specs) {
    values.push_back({spec, [spec](slpdas::core::ExperimentConfig& config) {
                        slpdas::core::apply_protocol_spec(spec, config);
                      }});
  }
  return values;
}

}  // namespace detail

inline Workload make_workload(const std::string& name, bool tiny) {
  using slpdas::core::ExperimentConfig;
  using slpdas::core::SweepGrid;

  ExperimentConfig base;
  base.radio = slpdas::core::RadioKind::kCasinoLab;
  Workload workload;
  workload.name = name;

  if (name == "grid_large") {
    base.check_schedules = false;
    base.runs = tiny ? 2 : 4;
    SweepGrid grid(base);
    std::vector<SweepGrid::AxisValue> sides;
    for (const char* spec : tiny ? std::vector<const char*>{"grid:9", "grid:11"}
                                  : std::vector<const char*>{"grid:21", "grid:31",
                                                             "grid:41"}) {
      sides.push_back(detail::topology_value(spec));
    }
    grid.axis("topology", std::move(sides));
    grid.axis("protocol",
              detail::protocol_values({"protectionless-das", "slp-das"}));
    workload.cells = grid.expand();
  } else if (name == "udisk_dense") {
    base.check_schedules = false;
    base.runs = tiny ? 2 : 6;
    SweepGrid grid(base);
    grid.axis("topology", {detail::topology_value(
                              tiny ? "udisk:n=150,r=15,seed=7"
                                   : "udisk:n=800,r=10,seed=7")});
    grid.axis("protocol",
              detail::protocol_values({"protectionless-das", "slp-das",
                                       "phantom-routing:h=10"}));
    workload.cells = grid.expand();
  } else if (name == "many_cells") {
    base.check_schedules = true;
    base.runs = tiny ? 2 : 8;
    SweepGrid grid(base);
    std::vector<SweepGrid::AxisValue> sides;
    for (const char* spec : tiny ? std::vector<const char*>{"grid:7"}
                                  : std::vector<const char*>{"grid:7", "grid:9",
                                                             "grid:11", "grid:13"}) {
      sides.push_back(detail::topology_value(spec));
    }
    grid.axis("topology", std::move(sides));
    grid.axis("protocol",
              detail::protocol_values({"protectionless-das", "slp-das",
                                       "phantom-routing:h=10"}));
    std::vector<std::string> attackers = {
        "R=1,H=0,M=1,D=first-heard", "R=2,H=0,M=1,D=first-heard",
        "R=1,H=0,M=1,D=min-slot",    "R=1,H=2,M=1,D=history-avoiding",
        "R=1,H=0,M=2,D=first-heard", "R=2,H=2,M=2,D=random"};
    if (tiny) {
      attackers.resize(2);
    }
    std::vector<SweepGrid::AxisValue> attacker_values;
    for (const std::string& spec : attackers) {
      attacker_values.push_back(
          {spec, [spec](ExperimentConfig& config) {
             config.attacker = slpdas::core::AttackerSpec::parse(spec);
           }});
    }
    grid.axis("attacker", std::move(attacker_values));
    std::vector<SweepGrid::AxisValue> distances;
    for (const int sd : {3, 5}) {
      distances.push_back({std::to_string(sd), [sd](ExperimentConfig& config) {
                             config.parameters.search_distance = sd;
                           }});
    }
    grid.axis("sd", std::move(distances));
    workload.cells = grid.expand();
    workload.threads = kManyCellsThreads;
    workload.stream = true;
    workload.warm_every = 4;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (grid_large, udisk_dense, many_cells)");
  }
  return workload;
}

}  // namespace perfbench
