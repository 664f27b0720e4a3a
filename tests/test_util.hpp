// Shared helpers for protocol-level tests: build a simulator running the
// protectionless or SLP protocol on a topology with fast (test-sized)
// timing, and run it through its setup phase; run one seed or a seeded
// series of one experiment config through RunBatch. Also the
// malformed-integer inputs every JSON reader test feeds its int fields,
// and the graph and schedule probes that only tests need.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "slpdas/core/experiment.hpp"
#include "slpdas/core/parameters.hpp"
#include "slpdas/core/run_batch.hpp"
#include "slpdas/das/protocol.hpp"
#include "slpdas/mac/schedule.hpp"
#include "slpdas/sim/simulator.hpp"
#include "slpdas/slp/slp_das.hpp"
#include "slpdas/wsn/graph.hpp"
#include "slpdas/wsn/topology.hpp"

namespace slpdas::test {

/// True iff {a, b} is an edge of `graph`: a binary search of a's sorted
/// neighbour row. Throws std::out_of_range when a or b is not a node.
inline bool has_edge(const wsn::Graph& graph, wsn::NodeId a, wsn::NodeId b) {
  if (!graph.contains(b)) {
    throw std::out_of_range("has_edge: node " + std::to_string(b) +
                            " out of range");
  }
  const auto row = graph.neighbors(a);
  return std::binary_search(row.begin(), row.end(), b);
}

/// Unassigns `node` in `schedule` (set_slot refuses kNoSlot): builds the
/// checkers' unassigned-node inputs.
inline void clear_slot(mac::Schedule& schedule, wsn::NodeId node) {
  mac::Schedule cleared(schedule.node_count());
  for (wsn::NodeId n = 0; n < schedule.node_count(); ++n) {
    if (n != node && schedule.assigned(n)) {
      cleared.set_slot(n, schedule.slot(n));
    }
  }
  schedule = cleared;
}

/// Table I values shrunk for unit tests: short slots, few setup periods.
/// `setup_periods` must exceed discovery + network radius + a few rounds.
inline core::Parameters fast_parameters(int setup_periods = 24,
                                        int slots = 100) {
  core::Parameters params;
  params.slot_period_s = 0.002;
  params.dissem_period_s = 0.05;
  params.slots = slots;
  params.minimum_setup_periods = setup_periods;
  params.neighbor_discovery_periods = 3;
  params.dissemination_timeout = 5;
  params.search_start_period = setup_periods * 2 / 3;
  return params;
}

struct TestNet {
  wsn::Topology topology;
  std::unique_ptr<sim::Simulator> simulator;
  core::Parameters params;

  [[nodiscard]] sim::SimTime period() const {
    return params.frame().period();
  }
  [[nodiscard]] sim::SimTime setup_end() const {
    return static_cast<sim::SimTime>(params.minimum_setup_periods) * period();
  }
  [[nodiscard]] das::ProtectionlessDas& node(wsn::NodeId id) {
    return dynamic_cast<das::ProtectionlessDas&>(simulator->process(id));
  }
  [[nodiscard]] slp::SlpDas& slp_node(wsn::NodeId id) {
    return dynamic_cast<slp::SlpDas&>(simulator->process(id));
  }
};

inline TestNet make_protectionless_net(
    wsn::Topology topology, const core::Parameters& params,
    std::uint64_t seed, std::unique_ptr<sim::RadioModel> radio = nullptr) {
  TestNet net{std::move(topology), nullptr, params};
  net.simulator = std::make_unique<sim::Simulator>(
      net.topology.graph, radio ? std::move(radio) : sim::make_ideal_radio(),
      seed);
  net.simulator->set_propagation_delay(sim::kMillisecond / 2);
  for (wsn::NodeId n = 0; n < net.topology.graph.node_count(); ++n) {
    net.simulator->add_process(
        n, std::make_unique<das::ProtectionlessDas>(
               params.das_config(), net.topology.sink, net.topology.source));
  }
  return net;
}

inline TestNet make_slp_net(wsn::Topology topology,
                            const core::Parameters& params, std::uint64_t seed,
                            std::unique_ptr<sim::RadioModel> radio = nullptr) {
  TestNet net{std::move(topology), nullptr, params};
  net.simulator = std::make_unique<sim::Simulator>(
      net.topology.graph, radio ? std::move(radio) : sim::make_ideal_radio(),
      seed);
  net.simulator->set_propagation_delay(sim::kMillisecond / 2);
  const slp::SlpConfig config = params.slp_config(net.topology);
  for (wsn::NodeId n = 0; n < net.topology.graph.node_count(); ++n) {
    net.simulator->add_process(
        n, std::make_unique<slp::SlpDas>(config, net.topology.sink,
                                         net.topology.source));
  }
  return net;
}

/// Runs the network through its full setup phase (periods [0, MSP)).
inline void run_setup(TestNet& net) {
  net.simulator->run_until(net.setup_end());
}

/// One seeded run of `config` on a fresh batch over a freshly built
/// topology.
inline core::RunResult run_one(const core::ExperimentConfig& config,
                               std::uint64_t seed) {
  const wsn::Topology topology = config.topology.build();
  return core::RunBatch(config, topology).run_one(seed);
}

/// `config.runs` runs of `config`, run i seeded with
/// derive_seed(base_seed, i), aggregated in run order.
inline core::ExperimentResult run_runs(const core::ExperimentConfig& config,
                                       std::uint64_t base_seed) {
  const wsn::Topology topology = config.topology.build();
  std::vector<core::RunResult> runs(static_cast<std::size_t>(config.runs));
  core::RunBatch(config, topology)
      .run_range(base_seed, 0, config.runs, runs.data());
  return core::aggregate_runs(runs, config.check_schedules);
}

/// Tokens no int field of a serialised record may accept: null (NaN
/// through a double), out of range, negative, fractional.
inline constexpr const char* kBadIntegerTokens[] = {"null", "1e300", "-1",
                                                    "2.5"};

/// Whether `message` is the typed refusal of an int field
/// (JsonParser::Value::as_int).
inline bool is_bad_integer_error(const std::string& message) {
  return message.find("expected an integer") != std::string::npos;
}

/// `text` with the first occurrence of `from` replaced by `to`; an absent
/// `from` is a test bug and fails the calling test.
inline std::string replace_first(std::string text, const std::string& from,
                                 const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << "fixture lacks " << from;
  if (at != std::string::npos) {
    text.replace(at, from.size(), to);
  }
  return text;
}

}  // namespace slpdas::test
