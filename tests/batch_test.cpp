// Pins the batched execution contract (run_batch.hpp): hoisting the
// run-invariant state of a cell out of the per-seed loop must not change
// a single output bit.
//
//   * RunBatch::run_one(seed) equals a one-shot batch's run_one(seed)
//     for every seed, in any execution order — each run owns its seed's
//     whole RNG stream, so batch-mates cannot bleed randomness into each
//     other.
//   * run_range slices compose: any partition of [0, runs) into ranges
//     yields the same dense results as one range or as seed-by-seed
//     run_one calls.
//   * RunBatch::Fork — one Simulator replayed through reset_run — equals
//     cold construction for every registered scenario's cells, in any
//     seed order, including replaying a seed the fork already ran.
#include "slpdas/core/run_batch.hpp"

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "slpdas/core/scenario.hpp"
#include "slpdas/rng.hpp"
#include "test_util.hpp"

namespace slpdas::core {
namespace {

/// Field-by-field equality over the whole RunResult, exact on doubles.
void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.captured, b.captured);
  EXPECT_EQ(a.capture_time_s.has_value(), b.capture_time_s.has_value());
  if (a.capture_time_s && b.capture_time_s) {
    EXPECT_EQ(*a.capture_time_s, *b.capture_time_s);
  }
  EXPECT_EQ(a.safety_periods, b.safety_periods);
  EXPECT_EQ(a.source_sink_distance, b.source_sink_distance);
  EXPECT_EQ(a.schedule_complete, b.schedule_complete);
  EXPECT_EQ(a.weak_das_ok, b.weak_das_ok);
  EXPECT_EQ(a.strong_das_ok, b.strong_das_ok);
  EXPECT_EQ(a.delivery_ratio, b.delivery_ratio);
  EXPECT_EQ(a.delivery_latency_s, b.delivery_latency_s);
  EXPECT_EQ(a.control_messages_per_node, b.control_messages_per_node);
  EXPECT_EQ(a.normal_messages_per_node, b.normal_messages_per_node);
  EXPECT_EQ(a.attacker_moves, b.attacker_moves);
}

ExperimentConfig small_config(ProtocolKind protocol) {
  ExperimentConfig config;
  config.topology = wsn::TopologySpec::grid(5);
  config.protocol = protocol;
  config.parameters = test::fast_parameters(24);
  config.radio = RadioKind::kCasinoLab;
  config.runs = 6;
  return config;
}

constexpr std::uint64_t kBaseSeed = 2017;

TEST(RunBatchTest, RefusesDasCellWhoseNinfoTablesCannotFit) {
  // Even in cell-major rank order, each of this spec's 200,000 Ninfo
  // windows spans several rows of 199 cells, so its DAS tables would need
  // 5.1 GB, above the bound; a sparser placement such as
  // udisk:n=150000,r=1,area=150 fits under it. The batch refuses it at
  // capture, before a fork builds a single process; phantom routing
  // keeps no Ninfo and is accepted.
  ExperimentConfig config = small_config(ProtocolKind::kProtectionlessDas);
  config.topology = wsn::TopologySpec::parse("udisk:n=200000,r=1,area=200");
  const wsn::Topology topology = config.topology.build();
  const std::uint64_t bytes = das::ninfo_table_bytes(topology.graph);
  EXPECT_EQ(bytes, 5'106'898'008u);
  EXPECT_GT(bytes, PhasePrefix::kMaxNinfoBytes);
  for (const ProtocolKind protocol :
       {ProtocolKind::kProtectionlessDas, ProtocolKind::kSlpDas}) {
    config.protocol = protocol;
    try {
      const RunBatch batch(config, topology);
      ADD_FAILURE() << "accepted " << config.topology.to_string();
    } catch (const std::invalid_argument& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("udisk:n=200000,r=1,area=200"),
                std::string::npos)
          << message;
      EXPECT_NE(message.find(std::to_string(bytes)), std::string::npos)
          << message;
    }
  }
  config.protocol = ProtocolKind::kPhantomRouting;
  EXPECT_NO_THROW(RunBatch(config, topology));
}

TEST(RunBatchTest, RunOneMatchesOneShotBatchInAnyOrder) {
  // Seed isolation: a batch executes seeds against shared hoisted state,
  // so each run's randomness must come only from its own seed — never
  // from batch construction or from whichever seeds ran before it.
  // run_one must therefore reproduce a fresh one-shot batch exactly even
  // when the seeds execute in a different order than a sweep slice would.
  for (const ProtocolKind protocol :
       {ProtocolKind::kProtectionlessDas, ProtocolKind::kSlpDas,
        ProtocolKind::kPhantomRouting}) {
    SCOPED_TRACE(static_cast<int>(protocol));
    const ExperimentConfig config = small_config(protocol);
    const wsn::Topology topology = config.topology.build();

    std::vector<std::uint64_t> seeds;
    for (int run = 0; run < config.runs; ++run) {
      seeds.push_back(derive_seed(kBaseSeed, run));
    }
    std::vector<RunResult> expected;
    for (const std::uint64_t seed : seeds) {
      expected.push_back(test::run_one(config, seed));
    }

    const RunBatch batch(config, topology);
    // Reversed, then interleaved odd/even — both must be order-blind.
    for (int run = config.runs - 1; run >= 0; --run) {
      expect_identical(batch.run_one(seeds[run]), expected[run]);
    }
    for (int parity : {1, 0}) {
      for (int run = parity; run < config.runs; run += 2) {
        expect_identical(batch.run_one(seeds[run]), expected[run]);
      }
    }
  }
}

TEST(RunBatchTest, ForkMatchesColdConstructionForEveryScenario) {
  // The fork path reuses one warm Simulator across seeds via reset_run;
  // the cold path (run_one) constructs a fresh one per seed. Any per-run
  // state reset_run fails to rewind — a live timer generation, a DAS
  // table still holding the previous seed's values, a stale attacker
  // position — diverges here, naming the scenario, cell and seed. Seeds
  // run out of order and one is replayed through the already-used fork,
  // so "warm" covers both fresh-after-reset and ran-before states.
  ScenarioRegistry registry;
  register_builtin_scenarios(registry);

  ScenarioOptions scenario_options;
  scenario_options.smoke = true;
  scenario_options.runs = 3;

  for (const Scenario& scenario : registry.scenarios()) {
    SCOPED_TRACE(scenario.name);
    const std::vector<SweepCell> cells =
        scenario.cells(scenario_options);
    ASSERT_FALSE(cells.empty());
    const std::uint64_t base_seed = scenario.resolved_seed(scenario_options);

    for (const SweepCell& cell : cells) {
      SCOPED_TRACE(cell.label);
      const wsn::Topology topology = cell.config.topology.build();
      const RunBatch batch(cell.config, topology);

      std::vector<std::uint64_t> seeds;
      std::vector<RunResult> cold;
      for (int run = 0; run < scenario_options.runs; ++run) {
        seeds.push_back(derive_seed(base_seed, run));
        cold.push_back(batch.run_one(seeds.back()));
      }

      RunBatch::Fork fork(batch);
      for (const int run : {2, 0, 1, 0}) {
        SCOPED_TRACE(run);
        expect_identical(fork.run(seeds[static_cast<std::size_t>(run)]),
                         cold[static_cast<std::size_t>(run)]);
      }
    }
  }
}

TEST(RunBatchTest, RunRangeSlicesComposeExactly) {
  // The sweep engine splits a cell's [0, runs) across workers only when
  // cells are scarce, so the same cell may execute as one slice or many
  // depending on thread count. Every partition must write the same dense
  // results.
  const ExperimentConfig config = small_config(ProtocolKind::kSlpDas);
  const wsn::Topology topology = config.topology.build();
  const RunBatch batch(config, topology);

  std::vector<RunResult> whole(config.runs);
  batch.run_range(kBaseSeed, 0, config.runs, whole.data());

  for (const RunResult& result : whole) {
    EXPECT_GT(result.safety_periods, 0.0);
  }

  std::vector<RunResult> seedwise;
  for (int run = 0; run < config.runs; ++run) {
    seedwise.push_back(
        batch.run_one(derive_seed(kBaseSeed, run)));
  }

  const int boundaries[][2] = {{0, 2}, {2, 3}, {3, 6}};
  std::vector<RunResult> sliced(config.runs);
  for (const auto& range : boundaries) {
    batch.run_range(kBaseSeed, range[0], range[1],
                    sliced.data() + range[0]);
  }

  for (int run = 0; run < config.runs; ++run) {
    SCOPED_TRACE(run);
    expect_identical(whole[run], seedwise[run]);
    expect_identical(whole[run], sliced[run]);
  }
}

}  // namespace
}  // namespace slpdas::core
