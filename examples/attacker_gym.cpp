// Attacker gym — exploring the (R, H, M, s0, D) attacker space of paper
// Figure 1 against one fixed SLP DAS deployment.
//
// Runs a single 11x11 SLP DAS setup, then releases a roster of attackers
// of increasing strength against the same schedule (fresh simulation per
// attacker) and prints each one's walk and outcome. Useful for building
// intuition about WHY the decoy parks the classic attacker and what
// capability (memory, move budget) an attacker needs to escape it.
//
// Build & run:  ./build/examples/attacker_gym [seed]
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "slpdas/slpdas.hpp"

namespace {

using namespace slpdas;

struct Contender {
  const char* name;
  attacker::AttackerParams params;
};

std::string render_trail(const std::vector<wsn::NodeId>& trail, int side) {
  std::ostringstream out;
  for (std::size_t i = 0; i < trail.size(); ++i) {
    if (i != 0) {
      out << " -> ";
    }
    out << "(" << trail[i] % side << "," << trail[i] / side << ")";
    if (i >= 11 && i + 2 < trail.size()) {
      out << " -> ... [" << trail.size() - i - 2 << " more]";
      break;
    }
  }
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 3;
  const int side = 11;
  const wsn::Topology topology = wsn::make_grid(side);
  const core::Parameters parameters;
  const verify::SafetyPeriod safety = verify::compute_safety_period(
      topology.graph, topology.source, topology.sink);

  std::vector<Contender> roster;
  {
    Contender c{"(1,0,1) first-heard  [the paper's attacker]", {}};
    c.params.start = topology.sink;
    roster.push_back(c);
  }
  {
    Contender c{"(2,0,1) min-slot     [buffers two messages]", {}};
    c.params.messages_per_move = 2;
    c.params.decision = attacker::Decision::kMinSlot;
    c.params.start = topology.sink;
    roster.push_back(c);
  }
  {
    Contender c{"(1,0,3) first-heard  [three moves per period]", {}};
    c.params.moves_per_period = 3;
    c.params.start = topology.sink;
    roster.push_back(c);
  }
  {
    Contender c{"(2,3,2) history-avoiding [escapes dead ends]", {}};
    c.params.messages_per_move = 2;
    c.params.history_size = 3;
    c.params.moves_per_period = 2;
    c.params.decision = attacker::Decision::kHistoryAvoiding;
    c.params.start = topology.sink;
    roster.push_back(c);
  }
  {
    Contender c{"(2,0,1) random       [control: no strategy]", {}};
    c.params.messages_per_move = 2;
    c.params.decision = attacker::Decision::kRandom;
    c.params.start = topology.sink;
    roster.push_back(c);
  }

  std::cout << "attacker gym: 11x11 SLP DAS deployment, seed " << seed
            << ", safety period " << safety.periods << " periods\n\n";

  for (const Contender& contender : roster) {
    // Fresh simulation per attacker so episodes are independent but the
    // seed (and hence the schedule) is identical.
    sim::Simulator simulator(topology.graph, sim::make_casino_lab_noise(),
                             seed);
    const slp::SlpConfig config = parameters.slp_config(topology);
    for (wsn::NodeId node = 0; node < topology.graph.node_count(); ++node) {
      simulator.add_process(node, std::make_unique<slp::SlpDas>(
                                      config, topology.sink, topology.source));
    }
    attacker::AttackerRuntime eavesdropper(simulator, parameters.frame(),
                                           contender.params, topology.source);
    const sim::SimTime activation =
        parameters.minimum_setup_periods * parameters.frame().period();
    simulator.run_until(activation);
    eavesdropper.activate(activation);
    simulator.run_until(activation + safety.duration(parameters.frame()));

    std::cout << contender.name << "\n  "
              << (eavesdropper.captured() ? "CAPTURED the source"
                                          : "safe (source not found)")
              << ", " << eavesdropper.moves_made() << " moves\n  walk: "
              << render_trail(eavesdropper.trail(), side) << "\n\n";
  }
  std::cout << "source is at (0,0); the decoy typically drags memoryless "
               "attackers east or south of the sink at (5,5) and parks "
               "them.\n";
  return 0;
}
