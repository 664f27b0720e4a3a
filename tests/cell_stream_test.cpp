// Streamed sweeps: the "slpdas.cell.v1" JSONL cell stream. Covers the
// record/header round-trip (byte-stable through the single writer),
// torn-tail tolerance, folding a complete stream into a "slpdas.sweep.v2"
// document bit-identical to an unstreamed run, and composition with the
// shard merge. Resuming a killed sweep is the cell cache's job
// (cell_cache_test).
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "slpdas/core/sweep.hpp"
#include "test_util.hpp"

namespace slpdas::core {
namespace {

/// Five cheap cells (not a multiple of 2 or 3, so shard interplay is
/// uneven) — the same fixture shape the shard/merge tests use.
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

CellStreamHeader header_for(const std::vector<SweepCell>& cells,
                            const SweepOptions& options) {
  CellStreamHeader header;
  header.schema = "slpdas.cell.v1";
  header.name = "cell_stream_test";
  header.base_seed = options.base_seed;
  header.grid_hash = hash_sweep_grid(cells);
  header.shard_index = options.shard_index;
  header.shard_count = options.shard_count;
  header.cells_total = cells.size();
  header.deterministic = options.deterministic_timing;
  header.threads = options.threads;
  return header;
}

std::string to_text(const SweepJson& document) {
  std::ostringstream out;
  write_sweep_json(out, document);
  return out.str();
}

/// The unstreamed reference document every streamed variant must
/// reproduce byte for byte.
SweepJson reference_document(const std::vector<SweepCell>& cells) {
  return to_sweep_json(run_sweep(cells, deterministic_options()),
                       "cell_stream_test");
}

/// Serialises a complete stream for the given shard: header first, then
/// the shard's cells in the given order (completion order is arbitrary in
/// a real run, so callers pass shuffled orders on purpose).
std::string stream_text(const CellStreamHeader& header,
                        const std::vector<SweepJsonCell>& cells) {
  std::ostringstream out;
  write_cell_stream_header(out, header);
  for (const SweepJsonCell& cell : cells) {
    write_cell_stream_record(out, cell);
  }
  return out.str();
}

CellStream parse_text(const std::string& text) {
  std::istringstream in(text);
  return read_cell_stream(in);
}

TEST(CellStreamTest, HeaderRoundTrips) {
  const auto cells = five_cells();
  const CellStreamHeader header = header_for(cells, deterministic_options());
  const CellStream parsed = parse_text(stream_text(header, {}));
  EXPECT_EQ(parsed.header.schema, "slpdas.cell.v1");
  EXPECT_EQ(parsed.header.name, header.name);
  EXPECT_EQ(parsed.header.base_seed, header.base_seed);
  EXPECT_EQ(parsed.header.grid_hash, header.grid_hash);
  EXPECT_EQ(parsed.header.shard_index, header.shard_index);
  EXPECT_EQ(parsed.header.shard_count, header.shard_count);
  EXPECT_EQ(parsed.header.cells_total, header.cells_total);
  EXPECT_EQ(parsed.header.deterministic, header.deterministic);
  EXPECT_EQ(parsed.header.threads, header.threads);
  EXPECT_TRUE(parsed.cells.empty());
}

TEST(CellStreamTest, RecordsAreByteStableThroughAReadRewrite) {
  // The cache payload and the fleet's done records are read back and
  // compared or refolded; read-then-rewrite must reproduce every record
  // byte for byte (same single-writer discipline as the sweep document).
  const auto cells = five_cells();
  const SweepJson reference = reference_document(cells);
  const CellStreamHeader header = header_for(cells, deterministic_options());
  const std::string first = stream_text(header, reference.cells);
  const CellStream parsed = parse_text(first);
  ASSERT_EQ(parsed.cells.size(), reference.cells.size());
  EXPECT_EQ(stream_text(parsed.header, parsed.cells), first);
}

TEST(CellStreamTest, DropsTheTornTailOfAKilledWriter) {
  const auto cells = five_cells();
  const SweepJson reference = reference_document(cells);
  const CellStreamHeader header = header_for(cells, deterministic_options());
  std::string text = stream_text(
      header, {reference.cells[0], reference.cells[1]});
  // A kill mid-write leaves a prefix of the next record with no newline.
  text += "{\"index\": 2, \"label\": \"cell=2\", \"coordi";
  const CellStream parsed = parse_text(text);
  ASSERT_EQ(parsed.cells.size(), 2u);
  EXPECT_EQ(parsed.cells[0].index, 0u);
  EXPECT_EQ(parsed.cells[1].index, 1u);
}

TEST(CellStreamTest, DeepNestingIsATypedErrorNotACrash) {
  // Unbounded recursive descent overflowed the stack on these lines.
  const std::string deep(1'000'000, '[');
  const CellStreamHeader header =
      header_for(five_cells(), deterministic_options());
  // As the header line, and as a whole record line after a good header.
  EXPECT_THROW((void)parse_text(deep + "\n"), std::runtime_error);
  EXPECT_THROW((void)parse_text(stream_text(header, {}) + deep + "\n"),
               std::runtime_error);
}

TEST(CellStreamTest, RejectsMalformedStreams) {
  const auto cells = five_cells();
  const SweepJson reference = reference_document(cells);
  const CellStreamHeader header = header_for(cells, deterministic_options());
  // No complete line at all -> no header.
  EXPECT_THROW((void)parse_text(""), std::runtime_error);
  // A record line where the header should be.
  {
    std::ostringstream out;
    write_cell_stream_record(out, reference.cells[0]);
    EXPECT_THROW((void)parse_text(out.str()), std::runtime_error);
  }
  // An unknown schema tag.
  EXPECT_THROW(
      (void)parse_text("{\"schema\": \"slpdas.cell.v999\", \"name\": \"x\", "
                       "\"base_seed\": 1, \"grid_hash\": 1, \"shard\": "
                       "{\"index\": 0, \"count\": 1, \"cells_total\": 1}, "
                       "\"threads\": 1}\n"),
      std::runtime_error);
  // A duplicate record for one cell.
  EXPECT_THROW((void)parse_text(stream_text(
                   header, {reference.cells[0], reference.cells[0]})),
               std::runtime_error);
  // A record whose index lies outside the grid.
  {
    SweepJsonCell outside = reference.cells[0];
    outside.index = header.cells_total + 3;
    EXPECT_THROW((void)parse_text(stream_text(header, {outside})),
                 std::runtime_error);
  }
  // A record that belongs to a different shard than the header claims.
  {
    CellStreamHeader sharded = header;
    sharded.shard_index = 0;
    sharded.shard_count = 2;
    EXPECT_THROW(
        (void)parse_text(stream_text(sharded, {reference.cells[1]})),
        std::runtime_error);
  }
  // Int fields take exact integers in 0..INT_MAX only — the header's
  // thread and shard counts and a record's run count alike.
  const std::string good = stream_text(header, {reference.cells[0]});
  ASSERT_NO_THROW((void)parse_text(good));
  const std::pair<std::string, std::string> fields[] = {
      {"\"threads\": ", std::to_string(header.threads) + "}"},
      {"\"count\": ", "1,"},
      {"\"runs\": ", std::to_string(reference.cells[0].runs) + ","}};
  for (const auto& [field, value] : fields) {
    for (const char* bad : test::kBadIntegerTokens) {
      SCOPED_TRACE(field + bad);
      try {
        (void)parse_text(test::replace_first(good, field + value,
                                             field + bad + value.back()));
        ADD_FAILURE() << "accepted";
      } catch (const std::runtime_error& error) {
        EXPECT_TRUE(test::is_bad_integer_error(error.what())) << error.what();
      }
    }
  }
}

TEST(CellStreamTest, FoldRefusesAPartialStream) {
  const auto cells = five_cells();
  const SweepJson reference = reference_document(cells);
  const CellStreamHeader header = header_for(cells, deterministic_options());
  const CellStream partial = parse_text(
      stream_text(header, {reference.cells[0], reference.cells[2]}));
  EXPECT_THROW((void)fold_cell_stream(partial), std::runtime_error);
}

TEST(CellStreamTest, FoldingACompleteStreamIsBitIdenticalToAnUnstreamedRun) {
  const auto cells = five_cells();
  const SweepJson reference = reference_document(cells);
  const CellStreamHeader header = header_for(cells, deterministic_options());
  // Records land in completion order, which a parallel run does not
  // control; fold must re-sort. Feed a deliberately scrambled order.
  const std::vector<SweepJsonCell> scrambled = {
      reference.cells[3], reference.cells[0], reference.cells[4],
      reference.cells[2], reference.cells[1]};
  const SweepJson folded =
      fold_cell_stream(parse_text(stream_text(header, scrambled)));
  EXPECT_EQ(to_text(folded), to_text(reference));
}

TEST(CellStreamTest, FoldedShardStreamsComposeWithMergeUnchanged) {
  const auto cells = five_cells();
  const std::string unsharded = to_text(reference_document(cells));
  std::vector<SweepJson> folded_shards;
  for (int i = 0; i < 2; ++i) {
    const SweepOptions options = deterministic_options(i, 2);
    const SweepJson shard =
        to_sweep_json(run_sweep(cells, options), "cell_stream_test");
    folded_shards.push_back(fold_cell_stream(
        parse_text(stream_text(header_for(cells, options), shard.cells))));
  }
  EXPECT_EQ(to_text(merge_sweep_shards(std::move(folded_shards))), unsharded);
}

TEST(CellStreamTest, RunSweepStreamFoldsToTheUnstreamedDocument) {
  // run_sweep writes the records; the caller writes the header. The
  // completed stream folds to the unstreamed document byte for byte.
  const auto cells = five_cells();
  SweepOptions options = deterministic_options();
  std::ostringstream stream;
  write_cell_stream_header(stream, header_for(cells, options));
  options.stream = &stream;
  (void)run_sweep(cells, options);
  EXPECT_EQ(to_text(fold_cell_stream(parse_text(stream.str()))),
            to_text(reference_document(cells)));
}

}  // namespace
}  // namespace slpdas::core
