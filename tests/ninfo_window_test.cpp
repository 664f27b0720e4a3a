// The DAS Ninfo window: each node keeps Ninfo[] over the rank range
// [min, max] of its closed 2-hop neighbourhood (ranks from
// wsn::Graph::ranks) instead of over all N ids. Every node a DISSEM listing
// can name must lie inside, and info_of must read every id outside as
// unassigned. ninfo_table_bytes, which refuses an oversized cell before it
// runs, must count exactly the windows taken.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
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

  const auto ranks = graph.ranks();
  const auto rank_of = [&](wsn::NodeId u) {
    return ranks[static_cast<std::size_t>(u)];
  };
  std::vector<wsn::NodeId> by_rank(ranks.size());
  for (wsn::NodeId u = 0; u < graph.node_count(); ++u) {
    by_rank[static_cast<std::size_t>(rank_of(u))] = u;
  }
  std::size_t assigned_outside = 0;
  for (wsn::NodeId v = 0; v < graph.node_count(); ++v) {
    const auto& node = dynamic_cast<const Reader&>(simulator.process(v));
    std::vector<wsn::NodeId> reach = graph.two_hop_neighborhood(v);
    reach.push_back(v);
    const auto [lo, hi] = node.ninfo_window();
    // Exactly the 2-hop rank range: nothing within two hops falls outside,
    // and the table is no wider than that.
    const auto by_rank_order = [&](wsn::NodeId a, wsn::NodeId b) {
      return rank_of(a) < rank_of(b);
    };
    EXPECT_EQ(lo, rank_of(*std::min_element(reach.begin(), reach.end(),
                                            by_rank_order)))
        << GetParam() << " node " << v;
    EXPECT_EQ(hi, rank_of(*std::max_element(reach.begin(), reach.end(),
                                            by_rank_order)))
        << GetParam() << " node " << v;
    for (wsn::NodeId u : reach) {
      EXPECT_TRUE(lo <= rank_of(u) && rank_of(u) <= hi)
          << GetParam() << " " << u << " of " << v;
    }
    EXPECT_EQ(node.info_of(v).slot, node.slot()) << GetParam() << " " << v;
    for (wsn::NodeId u = 0; u < graph.node_count(); ++u) {
      if (rank_of(u) < lo || rank_of(u) > hi) {
        assigned_outside += node.info_of(u).assigned() ? 1 : 0;
      }
    }
    // Ids that name no node, and the nodes ranked just outside.
    std::vector<wsn::NodeId> strays{
        wsn::kNoNode, std::numeric_limits<wsn::NodeId>::min(),
        std::numeric_limits<wsn::NodeId>::max(), graph.node_count(),
        graph.node_count() + 1};
    for (wsn::NodeId r : {lo - 1, hi + 1}) {
      if (r >= 0 && r < graph.node_count()) {
        strays.push_back(by_rank[static_cast<std::size_t>(r)]);
      }
    }
    for (wsn::NodeId u : strays) {
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

TEST(NinfoTableBytesTest, PinsTheTablesOfEachLayout) {
  // A unit disk's cell-major rank keeps each window to a few rows of
  // cells; laid out by id, these two placements needed 4,984,592 B (a mean
  // window of 778.8 of 800 ids) and 3,181,321,016 B. A grid's rank is its
  // id, so its tables are unchanged.
  const std::pair<const char*, std::uint64_t> cases[] = {
      {"udisk:n=800,r=10,seed=7", 1'607'512},
      {"udisk:n=20000,r=4,seed=7", 465'273'440},
      {"grid:41", 2'140'136},
  };
  for (const auto& [spec, bytes] : cases) {
    const wsn::Topology topology = wsn::TopologySpec::parse(spec).build();
    EXPECT_EQ(ninfo_table_bytes(topology.graph), bytes) << spec;
  }
}

}  // namespace
}  // namespace slpdas::das
