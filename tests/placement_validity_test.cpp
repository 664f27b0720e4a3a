// Schedule validity over seeded random placements: on twelve unit-disk
// placements, Phase 1 of protectionless DAS and of SLP-DAS must reach a
// complete schedule that the Definition 1-3 checkers pass as weak DAS,
// under the ideal and the casino-lab radio. A unit disk's ids follow
// placement order, and its DAS tables are laid out by the graph's
// cell-major rank instead, so these are the layouts that exercise the
// rank-space Ninfo windows.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "slpdas/core/experiment.hpp"
#include "test_util.hpp"

namespace slpdas::core {
namespace {

TEST(PlacementValidityTest, SeededUnitDisksYieldCompleteWeakDasSchedules) {
  ExperimentConfig config;
  config.runs = 2;
  config.check_schedules = true;
  for (int seed = 1; seed <= 12; ++seed) {
    config.topology = wsn::TopologySpec::parse(
        "udisk:n=150,r=15,seed=" + std::to_string(seed));
    for (const ProtocolKind protocol :
         {ProtocolKind::kProtectionlessDas, ProtocolKind::kSlpDas}) {
      for (const RadioKind radio : {RadioKind::kIdeal, RadioKind::kCasinoLab}) {
        config.protocol = protocol;
        config.radio = radio;
        const ExperimentResult result =
            test::run_runs(config, static_cast<std::uint64_t>(seed));
        const std::string cell = config.topology.to_string() + " " +
                                 format_protocol_spec(protocol, 10) + " " +
                                 format_radio_spec(radio, 0.05);
        EXPECT_EQ(result.runs, 2) << cell;
        EXPECT_EQ(result.schedule_incomplete_runs, 0) << cell;
        EXPECT_EQ(result.weak_das_failures, 0) << cell;
      }
    }
  }
}

}  // namespace
}  // namespace slpdas::core
