// Shard/merge determinism: a sweep run as 1, 2 or 3 shard processes and
// merged back must serialise bit-identically to the unsharded document
// (with deterministic timing, which zeroes the only nondeterministic
// fields). Also covers the shard partition itself and merge validation.
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "slpdas/core/sweep.hpp"
#include "test_util.hpp"

namespace slpdas::core {
namespace {

/// Five cheap cells — deliberately not a multiple of 2 or 3, so every
/// shard count exercises uneven partitions.
std::vector<SweepCell> five_cells() {
  ExperimentConfig base;
  base.topology = wsn::TopologySpec::grid(5);
  base.parameters = test::fast_parameters(24);
  base.radio = RadioKind::kCasinoLab;
  base.runs = 2;
  base.check_schedules = false;
  SweepGrid grid(base);
  std::vector<SweepGrid::AxisValue> values;
  for (int i = 0; i < 5; ++i) {
    values.push_back({std::to_string(i), nullptr});
  }
  grid.axis("cell", std::move(values));
  return grid.expand();
}

SweepOptions deterministic_options(int shard_index = 0, int shard_count = 1) {
  SweepOptions options;
  options.threads = 2;
  options.base_seed = 77;
  options.deterministic_timing = true;
  options.shard_index = shard_index;
  options.shard_count = shard_count;
  return options;
}

std::string to_text(const SweepJson& document) {
  std::ostringstream out;
  write_sweep_json(out, document);
  return out.str();
}

/// Runs shard i/n, serialises, reparses — the same path two cooperating
/// processes plus `slpdas_bench merge` would take.
SweepJson run_shard_through_json(const std::vector<SweepCell>& cells, int i,
                                 int n) {
  const SweepResult result = run_sweep(cells, deterministic_options(i, n));
  std::stringstream stream;
  write_sweep_json(stream, to_sweep_json(result, "shard_merge_test"));
  return read_sweep_json(stream);
}

TEST(SweepShardTest, PartitionsCellsRoundRobinByIndex) {
  const auto cells = five_cells();
  const SweepResult shard = run_sweep(cells, deterministic_options(1, 2));
  EXPECT_EQ(shard.shard_index, 1);
  EXPECT_EQ(shard.shard_count, 2);
  EXPECT_EQ(shard.cells_total, 5u);
  ASSERT_EQ(shard.cells.size(), 2u);  // indices 1 and 3
  EXPECT_EQ(shard.cells[0].index, 1u);
  EXPECT_EQ(shard.cells[0].label, cells[1].label);
  EXPECT_EQ(shard.cells[1].index, 3u);
  EXPECT_EQ(shard.cells[1].label, cells[3].label);
}

TEST(SweepShardTest, ShardCellsMatchUnshardedCellsBitForBit) {
  const auto cells = five_cells();
  const SweepResult full = run_sweep(cells, deterministic_options());
  const SweepResult shard = run_sweep(cells, deterministic_options(0, 3));
  ASSERT_EQ(shard.cells.size(), 2u);  // indices 0 and 3
  for (const SweepCellResult& cell : shard.cells) {
    const SweepCellResult& reference = full.cells[cell.index];
    EXPECT_EQ(cell.label, reference.label);
    EXPECT_EQ(cell.cell_seed, reference.cell_seed);
    EXPECT_EQ(cell.result.capture.successes(),
              reference.result.capture.successes());
    EXPECT_EQ(cell.result.delivery_ratio.mean(),
              reference.result.delivery_ratio.mean());
  }
}

TEST(SweepShardTest, RejectsInvalidShardSpecs) {
  const auto cells = five_cells();
  EXPECT_THROW((void)run_sweep(cells, deterministic_options(0, 0)),
               std::invalid_argument);
  EXPECT_THROW((void)run_sweep(cells, deterministic_options(-1, 2)),
               std::invalid_argument);
  EXPECT_THROW((void)run_sweep(cells, deterministic_options(2, 2)),
               std::invalid_argument);
}

TEST(SweepShardTest, EmptyShardSerialisesAndMergesFine) {
  // More shards than cells: shard 5-of-6 gets nothing, and merging all
  // six still reproduces the unsharded document.
  const auto cells = five_cells();
  const std::string unsharded =
      to_text(to_sweep_json(run_sweep(cells, deterministic_options()),
                            "shard_merge_test"));
  std::vector<SweepJson> shards;
  for (int i = 0; i < 6; ++i) {
    shards.push_back(run_shard_through_json(cells, i, 6));
  }
  EXPECT_TRUE(shards[5].cells.empty());
  EXPECT_EQ(to_text(merge_sweep_shards(std::move(shards))), unsharded);
}

TEST(SweepMergeTest, MergingOneTwoOrThreeShardsIsBitIdentical) {
  const auto cells = five_cells();
  const std::string unsharded =
      to_text(to_sweep_json(run_sweep(cells, deterministic_options()),
                            "shard_merge_test"));
  for (int n = 1; n <= 3; ++n) {
    std::vector<SweepJson> shards;
    // Deliberately merge in reverse order: merge sorts by cell index.
    for (int i = n; i-- > 0;) {
      shards.push_back(run_shard_through_json(cells, i, n));
    }
    const SweepJson merged = merge_sweep_shards(std::move(shards));
    EXPECT_EQ(to_text(merged), unsharded) << n << " shards";
  }
}

TEST(SweepMergeTest, MergedDocumentReportsAsUnsharded) {
  const auto cells = five_cells();
  std::vector<SweepJson> shards;
  shards.push_back(run_shard_through_json(cells, 0, 2));
  shards.push_back(run_shard_through_json(cells, 1, 2));
  const SweepJson merged = merge_sweep_shards(std::move(shards));
  EXPECT_EQ(merged.shard_index, 0);
  EXPECT_EQ(merged.shard_count, 1);
  EXPECT_EQ(merged.cells_total, 5u);
  ASSERT_EQ(merged.cells.size(), 5u);
  for (std::size_t i = 0; i < merged.cells.size(); ++i) {
    EXPECT_EQ(merged.cells[i].index, i);
  }
}

TEST(SweepMergeTest, RejectsInconsistentShardSets) {
  const auto cells = five_cells();
  const SweepJson a = run_shard_through_json(cells, 0, 2);
  const SweepJson b = run_shard_through_json(cells, 1, 2);

  // No documents at all.
  EXPECT_THROW((void)merge_sweep_shards({}), std::runtime_error);
  // Wrong document count for the declared shard count.
  EXPECT_THROW((void)merge_sweep_shards({a}), std::runtime_error);
  // The same shard twice.
  EXPECT_THROW((void)merge_sweep_shards({a, a}), std::runtime_error);
  // Mismatched names.
  {
    SweepJson renamed = b;
    renamed.name = "other_bench";
    EXPECT_THROW((void)merge_sweep_shards({a, renamed}), std::runtime_error);
  }
  // Mismatched sweep seeds: merging these would silently break the
  // common-random-numbers pairing between cells on different shards.
  {
    SweepJson reseeded = b;
    reseeded.base_seed = 12345;
    EXPECT_THROW((void)merge_sweep_shards({a, reseeded}),
                 std::runtime_error);
  }
  // Mismatched grids (e.g. shards run with different --runs or axis
  // values): the full-grid fingerprints disagree.
  {
    SweepJson regridded = b;
    regridded.grid_hash ^= 1;
    EXPECT_THROW((void)merge_sweep_shards({a, regridded}),
                 std::runtime_error);
  }
  // Mismatched grid sizes.
  {
    SweepJson resized = b;
    resized.cells_total = 7;
    EXPECT_THROW((void)merge_sweep_shards({a, resized}), std::runtime_error);
  }
  // A missing cell (gap in the index cover).
  {
    SweepJson truncated = b;
    truncated.cells.pop_back();
    EXPECT_THROW((void)merge_sweep_shards({a, truncated}),
                 std::runtime_error);
  }
  // The valid pair still merges (sanity that the fixtures are good).
  EXPECT_NO_THROW((void)merge_sweep_shards({a, b}));
}

}  // namespace
}  // namespace slpdas::core
