// The DAS Ninfo window: each node keeps Ninfo[] over the id range
// [min, max] of its 2-hop neighbourhood instead of over all N ids. Every
// id a DISSEM listing can name must lie inside, and info_of must read
// every id outside as unassigned. ninfo_table_bytes, which refuses an
// oversized cell before it runs, must count exactly the windows taken.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "slpdas/das/protocol.hpp"
#include "slpdas/sim/radio.hpp"
#include "slpdas/wsn/topology_spec.hpp"
#include "test_util.hpp"

namespace slpdas::das {
namespace {

/// A protectionless DAS node with its Ninfo table readable.
class Reader final : public ProtectionlessDas {
 public:
  using ProtectionlessDas::info_of;
  using ProtectionlessDas::ProtectionlessDas;
};

class NinfoWindowTest : public ::testing::TestWithParam<std::string> {};

TEST_P(NinfoWindowTest, WindowIsTheTwoHopIdRangeAndInfoOfIsTotal) {
  const wsn::Topology topology = wsn::TopologySpec::parse(GetParam()).build();
  const wsn::Graph& graph = topology.graph;
  const core::Parameters params = test::fast_parameters(40);
  sim::Simulator simulator(graph, sim::make_casino_lab_noise(), 3);
  simulator.set_propagation_delay(sim::kMillisecond / 2);
  for (wsn::NodeId n = 0; n < graph.node_count(); ++n) {
    simulator.add_process(n, std::make_unique<Reader>(params.das_config(),
                                                      topology.sink,
                                                      topology.source));
  }
  // Through the whole set-up: every listing merged had to fit its window.
  simulator.run_until(params.minimum_setup_periods * params.frame().period());

  std::size_t assigned_outside = 0;
  for (wsn::NodeId v = 0; v < graph.node_count(); ++v) {
    const auto& node = dynamic_cast<const Reader&>(simulator.process(v));
    std::vector<wsn::NodeId> reach = graph.two_hop_neighborhood(v);
    reach.push_back(v);
    const auto [lo, hi] = node.ninfo_window();
    // Exactly the 2-hop id range: nothing within two hops falls outside,
    // and the table is no wider than that.
    EXPECT_EQ(lo, *std::min_element(reach.begin(), reach.end()))
        << GetParam() << " node " << v;
    EXPECT_EQ(hi, *std::max_element(reach.begin(), reach.end()))
        << GetParam() << " node " << v;
    for (wsn::NodeId u : reach) {
      EXPECT_TRUE(lo <= u && u <= hi) << GetParam() << " " << u << " of " << v;
    }
    EXPECT_EQ(node.info_of(v).slot, node.slot()) << GetParam() << " " << v;
    for (wsn::NodeId u = 0; u < graph.node_count(); ++u) {
      if (u < lo || u > hi) {
        assigned_outside += node.info_of(u).assigned() ? 1 : 0;
      }
    }
    for (wsn::NodeId u : {lo - 1, hi + 1, wsn::kNoNode,
                          std::numeric_limits<wsn::NodeId>::min(),
                          std::numeric_limits<wsn::NodeId>::max()}) {
      EXPECT_FALSE(node.info_of(u).assigned()) << u << " of " << v;
    }
  }
  EXPECT_EQ(assigned_outside, 0u) << GetParam();
}

TEST_P(NinfoWindowTest, TableBytesSumTheWindowsOnStartTakes) {
  // ninfo_table_bytes is what a run is refused by before it starts, so it
  // must be exactly what every node's on_start then allocates.
  const wsn::Topology topology = wsn::TopologySpec::parse(GetParam()).build();
  const wsn::Graph& graph = topology.graph;
  const core::Parameters params = test::fast_parameters(40);
  sim::Simulator simulator(graph, sim::make_ideal_radio(), 3);
  for (wsn::NodeId n = 0; n < graph.node_count(); ++n) {
    simulator.add_process(n, std::make_unique<Reader>(params.das_config(),
                                                      topology.sink,
                                                      topology.source));
  }
  simulator.run_until(1);  // every node's on_start
  std::uint64_t entries = 0;
  for (wsn::NodeId v = 0; v < graph.node_count(); ++v) {
    const auto window =
        dynamic_cast<const Reader&>(simulator.process(v)).ninfo_window();
    EXPECT_EQ(ninfo_window_of(graph, v), window) << GetParam() << " node " << v;
    entries += static_cast<std::uint64_t>(window.second - window.first) + 1;
  }
  EXPECT_EQ(ninfo_table_bytes(graph), entries * sizeof(NodeInfo)) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, NinfoWindowTest,
    ::testing::Values("grid:7", "grid:9", "grid:5x9", "line:12", "ring:11",
                      "ring:4", "udisk:n=60,r=18,area=60,seed=7",
                      "udisk:n=90,r=16,area=70,seed=11"));

}  // namespace
}  // namespace slpdas::das
