// Streamed, resumable sweeps: the "slpdas.cell.v1" JSONL cell stream.
// Covers the record/header round-trip (byte-stable through the single
// writer), torn-tail tolerance, resume verification, folding a complete
// stream into a "slpdas.sweep.v2" document bit-identical to an
// uninterrupted run, composition with the shard merge, and the
// kill-and-resume path through run_scenario.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "slpdas/core/scenario.hpp"
#include "slpdas/core/sweep.hpp"
#include "test_util.hpp"

namespace slpdas::core {
namespace {

/// Five cheap cells (not a multiple of 2 or 3, so shard interplay is
/// uneven) — the same fixture shape the shard/merge tests use.
std::vector<SweepCell> five_cells(RadioKind radio = RadioKind::kCasinoLab) {
  ExperimentConfig base;
  base.topology = wsn::TopologySpec::grid(5);
  base.parameters = test::fast_parameters(24);
  base.radio = radio;
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
  // The resume path rewrites the verified stream back to disk; that is
  // only crash-safe because read-then-rewrite reproduces every record
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

TEST(CellStreamTest, VerifyResumableComparesEveryIdentityField) {
  const auto cells = five_cells();
  const CellStreamHeader expected = header_for(cells, deterministic_options());
  EXPECT_NO_THROW(verify_cell_stream_resumable(expected, expected));
  {
    CellStreamHeader renamed = expected;
    renamed.name = "other_bench";
    EXPECT_THROW(verify_cell_stream_resumable(renamed, expected),
                 std::runtime_error);
  }
  {
    CellStreamHeader reseeded = expected;
    reseeded.base_seed ^= 1;
    EXPECT_THROW(verify_cell_stream_resumable(reseeded, expected),
                 std::runtime_error);
  }
  {
    CellStreamHeader regridded = expected;
    regridded.grid_hash ^= 1;
    EXPECT_THROW(verify_cell_stream_resumable(regridded, expected),
                 std::runtime_error);
  }
  {
    CellStreamHeader resharded = expected;
    resharded.shard_count = 2;
    EXPECT_THROW(verify_cell_stream_resumable(resharded, expected),
                 std::runtime_error);
  }
  {
    CellStreamHeader resized = expected;
    resized.cells_total += 1;
    EXPECT_THROW(verify_cell_stream_resumable(resized, expected),
                 std::runtime_error);
  }
  {
    // A stream started with the other --deterministic setting would fold
    // zeroed and real wall clocks into one document; refuse it.
    CellStreamHeader retimed = expected;
    retimed.deterministic = !expected.deterministic;
    EXPECT_THROW(verify_cell_stream_resumable(retimed, expected),
                 std::runtime_error);
  }
  {
    // A different pool size is NOT a mismatch: results never depend on
    // it, and the fold keeps the original run's thread count.
    CellStreamHeader rethreaded = expected;
    rethreaded.threads = expected.threads + 6;
    EXPECT_NO_THROW(verify_cell_stream_resumable(rethreaded, expected));
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

TEST(CellStreamTest, RunSweepSkipsTheCellsAResumedStreamAlreadyHolds) {
  const auto cells = five_cells();
  SweepOptions options = deterministic_options();
  options.skip_cells = {0, 3};
  const SweepResult resumed = run_sweep(cells, options);
  ASSERT_EQ(resumed.cells.size(), 3u);
  EXPECT_EQ(resumed.cells[0].index, 1u);
  EXPECT_EQ(resumed.cells[1].index, 2u);
  EXPECT_EQ(resumed.cells[2].index, 4u);
  // The surviving cells are label-seeded, so skipping neighbours changes
  // nothing about their results.
  const SweepJson reference = reference_document(cells);
  const SweepJson partial = to_sweep_json(resumed, "cell_stream_test");
  EXPECT_EQ(to_text(partial).find("cell=0"), std::string::npos);
  EXPECT_EQ(stream_text(header_for(cells, options), partial.cells),
            stream_text(header_for(cells, options),
                        {reference.cells[1], reference.cells[2],
                         reference.cells[4]}));
}

// ---------------------------------------------------------------------------
// Kill-and-resume through run_scenario
// ---------------------------------------------------------------------------

Scenario tiny_scenario(RadioKind radio = RadioKind::kCasinoLab) {
  Scenario scenario;
  scenario.name = "cell_stream_test";
  scenario.reference = "test fixture";
  scenario.summary = "five cheap cells";
  scenario.default_runs = 2;
  scenario.default_seed = 77;
  scenario.make_cells = [radio](const ScenarioOptions&) {
    return five_cells(radio);
  };
  scenario.report = [](std::ostream&, const SweepJson&,
                       const ScenarioOptions&) { return 0; };
  return scenario;
}

ScenarioExecution streamed_execution(const std::string& path) {
  ScenarioExecution execution;
  execution.deterministic_timing = true;
  execution.stream_path = path;
  return execution;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Files next to `path` whose names extend its file name — where a
/// rewrite's temporaries would be left behind.
std::vector<std::string> siblings_of(const std::string& path) {
  const std::filesystem::path file(path);
  const std::string name = file.filename().string();
  std::vector<std::string> siblings;
  for (const auto& entry :
       std::filesystem::directory_iterator(file.parent_path())) {
    const std::string other = entry.path().filename().string();
    if (other != name && other.rfind(name, 0) == 0) {
      siblings.push_back(other);
    }
  }
  return siblings;
}

class ScenarioStreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "cell_stream_test.jsonl";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(ScenarioStreamTest, StreamedRunMatchesUnstreamedRunBitForBit) {
  const Scenario scenario = tiny_scenario();
  ThreadPool pool(2);
  const SweepJson unstreamed = run_scenario(
      scenario, ScenarioOptions{}, streamed_execution(""), pool);
  const SweepJson streamed = run_scenario(
      scenario, ScenarioOptions{}, streamed_execution(path_), pool);
  EXPECT_EQ(to_text(streamed), to_text(unstreamed));
  // The stream file itself is a complete, foldable record of the run.
  std::ifstream in(path_, std::ios::binary);
  ASSERT_TRUE(in.is_open());
  EXPECT_EQ(to_text(fold_cell_stream(read_cell_stream(in))),
            to_text(unstreamed));
}

TEST_F(ScenarioStreamTest, ResumingAnInterruptedStreamReproducesTheRun) {
  const Scenario scenario = tiny_scenario();
  ThreadPool pool(2);
  const SweepJson uninterrupted = run_scenario(
      scenario, ScenarioOptions{}, streamed_execution(""), pool);
  // Complete the stream once to harvest authentic record bytes...
  (void)run_scenario(scenario, ScenarioOptions{}, streamed_execution(path_),
                     pool);
  const std::string complete = slurp(path_);
  // ...then reconstruct the file a SIGKILL would have left behind: the
  // header, the first two whole records, and a torn third record.
  std::vector<std::string> lines;
  std::istringstream in(complete);
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 6u);  // header + five cells
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << lines[0] << '\n' << lines[1] << '\n' << lines[2] << '\n'
        << lines[3].substr(0, lines[3].size() / 2);
  }
  const SweepJson resumed = run_scenario(
      scenario, ScenarioOptions{}, streamed_execution(path_), pool);
  EXPECT_EQ(to_text(resumed), to_text(uninterrupted));
  // The resumed stream file is whole again and byte-identical to the
  // uninterrupted one up to record order; folding proves completeness.
  std::ifstream reread(path_, std::ios::binary);
  EXPECT_EQ(to_text(fold_cell_stream(read_cell_stream(reread))),
            to_text(uninterrupted));
  // The rewrite went through an atomic replace that left no temporary
  // (".tmp.<pid>.<n>") behind.
  EXPECT_EQ(siblings_of(path_), std::vector<std::string>{});
}

TEST_F(ScenarioStreamTest, ResumingACompleteStreamRunsNothingAndRefolds) {
  const Scenario scenario = tiny_scenario();
  ThreadPool pool(2);
  const SweepJson first = run_scenario(
      scenario, ScenarioOptions{}, streamed_execution(path_), pool);
  const std::string bytes_before = slurp(path_);
  const SweepJson second = run_scenario(
      scenario, ScenarioOptions{}, streamed_execution(path_), pool);
  EXPECT_EQ(to_text(second), to_text(first));
  EXPECT_EQ(slurp(path_), bytes_before);
}

TEST_F(ScenarioStreamTest, RefusesToOverwriteAFileThatIsNotAStream) {
  // A --stream path typo must never truncate an unrelated file, even one
  // with no trailing newline (which the resume heuristic cannot parse).
  {
    std::ofstream out(path_, std::ios::binary);
    out << "precious user data with no trailing newline";
  }
  const Scenario scenario = tiny_scenario();
  ThreadPool pool(2);
  EXPECT_THROW((void)run_scenario(scenario, ScenarioOptions{},
                                  streamed_execution(path_), pool),
               std::runtime_error);
  EXPECT_EQ(slurp(path_), "precious user data with no trailing newline");
}

TEST_F(ScenarioStreamTest, ATornHeaderFromAKilledStartIsOverwritten) {
  // A process killed while writing the very first line leaves a torn
  // header prefix; that content IS ours, and a rerun starts fresh.
  {
    std::ofstream out(path_, std::ios::binary);
    out << "{\"schema\": \"slpdas.cell.v1\", \"name\": \"cel";
  }
  const Scenario scenario = tiny_scenario();
  ThreadPool pool(2);
  const SweepJson unstreamed = run_scenario(
      scenario, ScenarioOptions{}, streamed_execution(""), pool);
  const SweepJson streamed = run_scenario(
      scenario, ScenarioOptions{}, streamed_execution(path_), pool);
  EXPECT_EQ(to_text(streamed), to_text(unstreamed));
}

TEST_F(ScenarioStreamTest, RefusesToResumeRecordsOfADifferentExperiment) {
  // The header's grid hash covers labels and run counts, not the cells'
  // configs: a stream cut short on one radio and resumed with the same
  // labels on another passes the header check, and would fold the two
  // experiments into one document. Every kept record must match this
  // run's cell at its index.
  ThreadPool pool(2);
  (void)run_scenario(tiny_scenario(RadioKind::kIdeal), ScenarioOptions{},
                     streamed_execution(path_), pool);
  std::istringstream complete(slurp(path_));
  std::string header;
  std::string first_record;
  ASSERT_TRUE(std::getline(complete, header));
  ASSERT_TRUE(std::getline(complete, first_record));
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << header << '\n' << first_record << '\n';
  }
  const std::string cut = slurp(path_);
  try {
    (void)run_scenario(tiny_scenario(RadioKind::kLossy), ScenarioOptions{},
                       streamed_execution(path_), pool);
    ADD_FAILURE() << "resume on another radio was accepted";
  } catch (const std::runtime_error& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("config.radio 'ideal'"), std::string::npos)
        << message;
    EXPECT_NE(message.find("'lossy:p=0.05'"), std::string::npos) << message;
  }
  // The refused stream is left exactly as the interrupted run left it.
  EXPECT_EQ(slurp(path_), cut);
}

TEST_F(ScenarioStreamTest, RefusesAStreamFromADifferentSweep) {
  const Scenario scenario = tiny_scenario();
  ThreadPool pool(2);
  (void)run_scenario(scenario, ScenarioOptions{}, streamed_execution(path_),
                     pool);
  // Same file, different base seed: the header no longer matches.
  ScenarioOptions reseeded;
  reseeded.base_seed = 1234;
  EXPECT_THROW((void)run_scenario(scenario, reseeded,
                                  streamed_execution(path_), pool),
               std::runtime_error);
  // And the refused file is left untouched for the operator to inspect.
  std::ifstream in(path_, std::ios::binary);
  EXPECT_NO_THROW((void)fold_cell_stream(read_cell_stream(in)));
}

}  // namespace
}  // namespace slpdas::core
