#include "slpdas/core/phase_prefix.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "slpdas/das/messages.hpp"

namespace slpdas::core {

PhasePrefix PhasePrefix::capture(const ExperimentConfig& config,
                                 const wsn::Topology& topology) {
  const wsn::Graph& graph = topology.graph;
  if (!graph.contains(topology.source) || !graph.contains(topology.sink) ||
      topology.source == topology.sink) {
    throw std::invalid_argument("RunBatch: invalid source/sink");
  }

  PhasePrefix prefix;
  prefix.das = config.parameters.das_config();
  prefix.is_phantom = config.protocol == ProtocolKind::kPhantomRouting;
  if (!prefix.is_phantom) {
    const std::uint64_t ninfo_bytes = das::ninfo_table_bytes(graph);
    if (ninfo_bytes > kMaxNinfoBytes) {
      throw std::invalid_argument(
          "RunBatch: " + config.topology.to_string() + " needs " +
          std::to_string(ninfo_bytes) +
          " bytes of DAS Ninfo tables per run (limit " +
          std::to_string(kMaxNinfoBytes) + ")");
    }
  }
  if (config.protocol == ProtocolKind::kSlpDas) {
    prefix.slp = config.parameters.slp_config(topology);
  }
  prefix.phantom.period = prefix.das.period();
  prefix.phantom.hello_periods = prefix.das.neighbor_discovery_periods;
  prefix.phantom.setup_periods = prefix.das.minimum_setup_periods;
  prefix.phantom.walk_length = config.phantom_walk_length;

  // The safety-period BFS depends only on the graph and the parameters —
  // captured here, it runs once per cell instead of once per seed.
  prefix.safety = verify::compute_safety_period(
      graph, topology.source, topology.sink, config.parameters.safety_factor);

  const sim::SimTime period = prefix.das.period();
  prefix.activation =
      static_cast<sim::SimTime>(prefix.das.minimum_setup_periods) * period;
  prefix.safety_end = prefix.activation + prefix.safety.duration(prefix.das.frame);
  const sim::SimTime upper_bound =
      prefix.activation + config.parameters.upper_time_bound(graph.node_count());
  prefix.run_end = std::min(prefix.safety_end, upper_bound);

  prefix.das_hello = std::make_shared<das::HelloMessage>();
  prefix.phantom_hello = std::make_shared<phantom::PhantomHello>();
  return prefix;
}

}  // namespace slpdas::core
