// Property-based sweeps (TEST_P over topology x seed): the protocol-level
// invariants the paper's correctness argument rests on, checked across
// many configurations.
//
//  P1. Phase 1 always converges to a complete schedule.
//  P2. The schedule satisfies weak DAS (Definition 3).
//  P3. Every slot is non-colliding (Definition 1).
//  P4. Phase 3 refinement preserves weak DAS and collision-freedom.
//  P5. VerifySchedule BFS and exhaustive engines agree.
//  P6. A counterexample returned by VerifySchedule is a real attacker walk:
//      edges exist, it starts at s0, ends at the source, and respects the
//      B-set constraint at every step.
#include <gtest/gtest.h>

#include "slpdas/verify/das_checker.hpp"
#include "slpdas/verify/safety_period.hpp"
#include "slpdas/verify/verify_schedule.hpp"
#include "test_util.hpp"

namespace slpdas {
namespace {

using test::fast_parameters;
using test::make_protectionless_net;
using test::make_slp_net;
using test::run_setup;

enum class Topo { kGrid5, kGrid7, kGrid9, kLine8, kRing10, kUnitDisk };

wsn::Topology build(Topo kind) {
  switch (kind) {
    case Topo::kGrid5:
      return wsn::make_grid(5);
    case Topo::kGrid7:
      return wsn::make_grid(7);
    case Topo::kGrid9:
      return wsn::make_grid(9);
    case Topo::kLine8:
      return wsn::make_line(8);
    case Topo::kRing10:
      return wsn::make_ring(10);
    case Topo::kUnitDisk:
      return wsn::make_random_unit_disk(
          {.node_count = 40, .area_side = 40.0, .radio_range = 12.0, .seed = 5});
  }
  throw std::logic_error("unknown topology");
}

std::string topo_name(Topo kind) {
  switch (kind) {
    case Topo::kGrid5:
      return "grid5";
    case Topo::kGrid7:
      return "grid7";
    case Topo::kGrid9:
      return "grid9";
    case Topo::kLine8:
      return "line8";
    case Topo::kRing10:
      return "ring10";
    case Topo::kUnitDisk:
      return "unitdisk40";
  }
  return "unknown";
}

using Param = std::tuple<Topo, std::uint64_t>;

class ProtocolPropertySweep : public ::testing::TestWithParam<Param> {
 public:
  [[nodiscard]] static std::string param_name(
      const ::testing::TestParamInfo<Param>& info) {
    return topo_name(std::get<0>(info.param)) + "_seed" +
           std::to_string(std::get<1>(info.param));
  }
};

TEST_P(ProtocolPropertySweep, Phase1ConvergesToWeakDas) {
  const auto [kind, seed] = GetParam();
  auto net = make_protectionless_net(build(kind), fast_parameters(30), seed);
  run_setup(net);
  const auto schedule = das::extract_schedule(*net.simulator);
  ASSERT_TRUE(schedule.complete());  // P1
  const auto weak = verify::check_weak_das(net.topology.graph, schedule,
                                           net.topology.sink);
  EXPECT_TRUE(weak.ok()) << weak.summary();  // P2
  const auto collisions = verify::check_noncolliding(
      net.topology.graph, schedule, net.topology.sink);
  EXPECT_TRUE(collisions.ok()) << collisions.summary();  // P3
}

TEST_P(ProtocolPropertySweep, RefinementPreservesInvariants) {
  const auto [kind, seed] = GetParam();
  auto net = make_slp_net(build(kind), fast_parameters(30), seed);
  run_setup(net);
  const auto schedule = das::extract_schedule(*net.simulator);
  ASSERT_TRUE(schedule.complete());
  const auto weak = verify::check_weak_das(net.topology.graph, schedule,
                                           net.topology.sink);
  EXPECT_TRUE(weak.ok()) << weak.summary();  // P4
  const auto collisions = verify::check_noncolliding(
      net.topology.graph, schedule, net.topology.sink);
  EXPECT_TRUE(collisions.ok()) << collisions.summary();
}

TEST_P(ProtocolPropertySweep, VerifyEnginesAgree) {
  const auto [kind, seed] = GetParam();
  auto net = make_protectionless_net(build(kind), fast_parameters(30), seed);
  run_setup(net);
  const auto schedule = das::extract_schedule(*net.simulator);
  ASSERT_TRUE(schedule.complete());
  const verify::SafetyPeriod safety = verify::compute_safety_period(
      net.topology.graph, net.topology.source, net.topology.sink);
  for (const auto policy :
       {verify::DPolicy::kMinSlot, verify::DPolicy::kAnyHeard}) {
    verify::VerifyAttacker attacker;
    attacker.start = net.topology.sink;
    attacker.policy = policy;
    attacker.messages_per_move = policy == verify::DPolicy::kAnyHeard ? 2 : 1;
    const auto bfs =
        verify::verify_schedule(net.topology.graph, schedule, attacker,
                                safety.periods, net.topology.source);
    const auto dfs = verify::verify_schedule_exhaustive(
        net.topology.graph, schedule, attacker, safety.periods,
        net.topology.source);
    EXPECT_EQ(bfs.slp_aware, dfs.slp_aware)
        << "policy " << static_cast<int>(policy);  // P5
    if (!bfs.slp_aware) {
      EXPECT_LE(bfs.period, dfs.period);
    }
  }
}

TEST_P(ProtocolPropertySweep, CounterexamplesAreGenuineWalks) {
  const auto [kind, seed] = GetParam();
  auto net = make_protectionless_net(build(kind), fast_parameters(30), seed);
  run_setup(net);
  const auto schedule = das::extract_schedule(*net.simulator);
  ASSERT_TRUE(schedule.complete());
  verify::VerifyAttacker attacker;
  attacker.start = net.topology.sink;
  const verify::SafetyPeriod safety = verify::compute_safety_period(
      net.topology.graph, net.topology.source, net.topology.sink);
  const auto result =
      verify::verify_schedule(net.topology.graph, schedule, attacker,
                              safety.periods, net.topology.source);
  if (result.slp_aware) {
    EXPECT_TRUE(result.counterexample.empty());
    return;
  }
  const auto& trace = result.counterexample;  // P6
  ASSERT_GE(trace.size(), 2u);
  EXPECT_EQ(trace.front(), net.topology.sink);
  EXPECT_EQ(trace.back(), net.topology.source);
  EXPECT_LE(result.period, safety.periods);
  for (std::size_t i = 0; i + 1 < trace.size(); ++i) {
    ASSERT_TRUE(test::has_edge(net.topology.graph, trace[i], trace[i + 1]));
    // With R = 1 and min-slot D, each step must go to THE lowest-slot
    // neighbour of the current location.
    const auto heard = verify::lowest_slot_neighbors(net.topology.graph,
                                                     schedule, trace[i], 1);
    ASSERT_EQ(heard.size(), 1u);
    EXPECT_EQ(trace[i + 1], heard.front()) << "step " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ProtocolPropertySweep,
    ::testing::Combine(::testing::Values(Topo::kGrid5, Topo::kGrid7,
                                         Topo::kGrid9, Topo::kLine8,
                                         Topo::kRing10, Topo::kUnitDisk),
                       ::testing::Values(1u, 2u, 3u)),
    ProtocolPropertySweep::param_name);

}  // namespace
}  // namespace slpdas
