// Tests for the parallel scenario-sweep engine: grid expansion, per-cell
// seed derivation stability, deterministic execution for any thread
// count, thread-pool sharing across cells, and JSON round-tripping.
#include "slpdas/core/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <clocale>
#include <cmath>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "slpdas/core/cell_cache.hpp"
#include "slpdas/core/scenario.hpp"
#include "test_util.hpp"

namespace slpdas::core {
namespace {

ExperimentConfig small_base(int runs = 4) {
  ExperimentConfig config;
  config.topology = wsn::TopologySpec::grid(5);
  config.parameters = test::fast_parameters(24);
  config.radio = RadioKind::kCasinoLab;
  config.runs = runs;
  config.check_schedules = false;
  return config;
}

/// A 2x2 (side x protocol) grid of cheap cells.
std::vector<SweepCell> small_cells(int runs = 4) {
  SweepGrid grid(small_base(runs));
  grid.axis("side", {{"5",
                      [](ExperimentConfig& config) {
                        config.topology = wsn::TopologySpec::grid(5);
                      }},
                     {"7",
                      [](ExperimentConfig& config) {
                        config.topology = wsn::TopologySpec::grid(7);
                      }}});
  grid.axis("protocol",
            {{"protectionless-das",
              [](ExperimentConfig& config) {
                config.protocol = ProtocolKind::kProtectionlessDas;
              }},
             {"slp-das",
              [](ExperimentConfig& config) {
                config.protocol = ProtocolKind::kSlpDas;
              }}});
  return grid.expand();
}

void expect_same_result(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.capture.trials(), b.capture.trials());
  EXPECT_EQ(a.capture.successes(), b.capture.successes());
  // Aggregation happens in run-index order, so even the floating-point
  // accumulators must agree to the last bit.
  EXPECT_EQ(a.capture_time_s.mean(), b.capture_time_s.mean());
  EXPECT_EQ(a.capture_time_s.stddev(), b.capture_time_s.stddev());
  EXPECT_EQ(a.delivery_ratio.mean(), b.delivery_ratio.mean());
  EXPECT_EQ(a.delivery_latency_s.mean(), b.delivery_latency_s.mean());
  EXPECT_EQ(a.control_messages_per_node.mean(),
            b.control_messages_per_node.mean());
  EXPECT_EQ(a.normal_messages_per_node.mean(),
            b.normal_messages_per_node.mean());
  EXPECT_EQ(a.attacker_moves.mean(), b.attacker_moves.mean());
  EXPECT_EQ(a.schedule_incomplete_runs, b.schedule_incomplete_runs);
}

TEST(SweepGridTest, ExpandsCartesianProductRowMajor) {
  const auto cells = small_cells();
  ASSERT_EQ(cells.size(), 4u);
  // The last axis (protocol) varies fastest.
  EXPECT_EQ(cells[0].label, "side=5/protocol=protectionless-das");
  EXPECT_EQ(cells[1].label, "side=5/protocol=slp-das");
  EXPECT_EQ(cells[2].label, "side=7/protocol=protectionless-das");
  EXPECT_EQ(cells[3].label, "side=7/protocol=slp-das");
  ASSERT_EQ(cells[3].coordinates.size(), 2u);
  EXPECT_EQ(cells[3].coordinates[0].first, "side");
  EXPECT_EQ(cells[3].coordinates[0].second, "7");
  EXPECT_EQ(cells[3].coordinates[1].first, "protocol");
  EXPECT_EQ(cells[3].coordinates[1].second, "slp-das");
}

TEST(SweepGridTest, MutatorsApplyOnTopOfBase) {
  const auto cells = small_cells();
  EXPECT_EQ(cells[0].config.protocol, ProtocolKind::kProtectionlessDas);
  EXPECT_EQ(cells[1].config.protocol, ProtocolKind::kSlpDas);
  // Configs carry specs, not graphs: the cells stay cheap values and the
  // node count is known without materialising anything.
  EXPECT_EQ(cells[0].config.topology.node_count(), 25);
  EXPECT_EQ(cells[2].config.topology.node_count(), 49);
  // Base fields untouched by any axis survive into every cell.
  for (const SweepCell& cell : cells) {
    EXPECT_EQ(cell.config.radio, RadioKind::kCasinoLab);
    EXPECT_EQ(cell.config.runs, 4);
  }
}

TEST(SweepGridTest, EmptyGridAndEmptyAxisExpandToNothing) {
  EXPECT_TRUE(SweepGrid(small_base()).expand().empty());
  SweepGrid grid(small_base());
  grid.axis("side", {});
  EXPECT_TRUE(grid.expand().empty());
}

TEST(SweepSeedTest, CellSeedDependsOnlyOnBaseSeedAndLabel) {
  const std::uint64_t seed = derive_cell_seed(42, "side=11/protocol=slp-das");
  EXPECT_EQ(seed, derive_cell_seed(42, "side=11/protocol=slp-das"));
  EXPECT_NE(seed, derive_cell_seed(43, "side=11/protocol=slp-das"));
  EXPECT_NE(seed, derive_cell_seed(42, "side=15/protocol=slp-das"));
}

TEST(SweepSeedTest, CellResultsInvariantUnderGridEdits) {
  // Run the full grid, then just one of its cells: the shared cell must
  // produce identical results because its seed keys off the label, not
  // the cell's position in (or the size of) the grid.
  const auto cells = small_cells();
  SweepOptions options;
  options.threads = 2;
  options.base_seed = 9;
  const SweepResult full = run_sweep(cells, options);
  const SweepResult just_last = run_sweep({cells[3]}, options);
  ASSERT_EQ(just_last.cells.size(), 1u);
  EXPECT_EQ(full.cells[3].cell_seed, just_last.cells[0].cell_seed);
  expect_same_result(full.cells[3].result, just_last.cells[0].result);
}

TEST(SweepRunTest, DeterministicAcrossThreadCounts) {
  const auto cells = small_cells();
  SweepOptions serial;
  serial.threads = 1;
  serial.base_seed = 5;
  SweepOptions wide;
  wide.threads = 4;
  wide.base_seed = 5;
  const SweepResult a = run_sweep(cells, serial);
  const SweepResult b = run_sweep(cells, wide);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].label, b.cells[i].label);
    EXPECT_EQ(a.cells[i].cell_seed, b.cells[i].cell_seed);
    expect_same_result(a.cells[i].result, b.cells[i].result);
  }
}

TEST(SweepRunTest, SharesOnePoolAcrossAllCells) {
  // Six cells on a two-worker pool: a per-experiment pool would have
  // spawned 2 workers per cell (12 distinct ids); the shared pool never
  // exceeds its size no matter how many cells run.
  SweepGrid grid(small_base(2));
  std::vector<SweepGrid::AxisValue> values;
  for (int i = 0; i < 6; ++i) {
    values.push_back({std::to_string(i), nullptr});
  }
  grid.axis("cell", std::move(values));
  SweepOptions options;
  options.threads = 2;
  const SweepResult result = run_sweep(grid.expand(), options);
  EXPECT_EQ(result.threads, 2);
  EXPECT_GE(result.distinct_worker_threads, 1);
  EXPECT_LE(result.distinct_worker_threads, 2);
}

TEST(SweepRunTest, ExternalPoolIsReusedAcrossSweeps) {
  ThreadPool pool(2);
  const auto cells = small_cells(2);
  SweepOptions options;
  const SweepResult first = run_sweep(cells, options, pool);
  const SweepResult second = run_sweep(cells, options, pool);
  EXPECT_EQ(first.threads, 2);
  EXPECT_EQ(second.threads, 2);
  expect_same_result(first.cells[0].result, second.cells[0].result);
}

TEST(SweepSeedTest, UnseededAxisSharesOneSeedStream) {
  // With the protocol axis marked unseeded, both protocols face the same
  // per-run seeds (common random numbers), so their cell seeds match
  // while their labels stay distinct.
  SweepGrid grid(small_base(2));
  grid.axis("side", {{"5", nullptr}});
  grid.axis("protocol",
            {{"protectionless-das",
              [](ExperimentConfig& config) {
                config.protocol = ProtocolKind::kProtectionlessDas;
              }},
             {"slp-das",
              [](ExperimentConfig& config) {
                config.protocol = ProtocolKind::kSlpDas;
              }}},
            /*seeded=*/false);
  const auto cells = grid.expand();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_NE(cells[0].label, cells[1].label);
  EXPECT_EQ(cells[0].seed_label, "side=5");
  EXPECT_EQ(cells[1].seed_label, "side=5");
  const SweepResult result = run_sweep(cells, SweepOptions{});
  EXPECT_EQ(result.cells[0].cell_seed, result.cells[1].cell_seed);
}

TEST(SweepRunTest, RejectsDuplicateLabels) {
  auto cells = small_cells();
  cells[1].label = cells[0].label;
  EXPECT_THROW((void)run_sweep(cells, SweepOptions{}),
               std::invalid_argument);
}

TEST(SweepRunTest, RejectsCellWithNoRuns) {
  auto cells = small_cells();
  cells[1].config.runs = 0;
  EXPECT_THROW((void)run_sweep(cells, SweepOptions{}),
               std::invalid_argument);
}

TEST(SweepRunTest, ProgressReportsEveryCell) {
  // Cold, then half-warm: cache hits and computed cells go through one
  // completion step, so each cell is reported exactly once either way.
  const std::vector<SweepCell> cells = small_cells(2);
  const std::string dir = testing::TempDir() + "/slpdas_sweep_progress_cache";
  std::filesystem::remove_all(dir);
  CellCache cache(dir);
  for (const bool half_warm : {false, true}) {
    SCOPED_TRACE(half_warm ? "half-warm cache" : "no cache");
    SweepOptions options;
    options.threads = 2;
    options.deterministic_timing = true;
    if (half_warm) {
      // Warm cells 0 and 2 only: shard 0 of 2.
      options.cache = &cache;
      options.shard_count = 2;
      (void)run_sweep(cells, options);
      options.shard_count = 1;
    }
    std::ostringstream progress;
    options.progress = &progress;
    (void)run_sweep(cells, options);

    // Output is line-buffered: whole lines only, each a complete record.
    const std::string text = progress.str();
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.back(), '\n');
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) {
      lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), cells.size()) << text;
    // Counters run 1..N, in completion order.
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::string counter = "[" + std::to_string(i + 1) + "/" +
                                  std::to_string(cells.size()) + "] ";
      EXPECT_EQ(lines[i].rfind(counter, 0), 0u) << lines[i];
      EXPECT_NE(lines[i].find(" capture="), std::string::npos) << lines[i];
    }
    for (std::size_t c = 0; c < cells.size(); ++c) {
      // Hits are marked "(cached)"; computed cells show their compute
      // time, "(X.Ys)".
      const std::string tail =
          half_warm && c % 2 == 0 ? " (cached)" : "s)";
      int reported = 0;
      for (const std::string& line : lines) {
        if (line.find("] " + cells[c].label + " ") == std::string::npos) {
          continue;
        }
        ++reported;
        ASSERT_GE(line.size(), tail.size());
        EXPECT_EQ(line.substr(line.size() - tail.size()), tail) << line;
      }
      EXPECT_EQ(reported, 1) << cells[c].label << "\n" << text;
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(SweepRunTest, ProgressMarksAFailedCellInsteadOfReportingIt) {
  // A cell whose runs throw has no result to report: its progress line
  // says FAILED, never the aggregate of default-constructed runs.
  SweepGrid grid(small_base(2));
  grid.axis("R", {{"1", [](ExperimentConfig&) {}},
                  {"0", [](ExperimentConfig& config) {
                     config.attacker.messages_per_move = 0;
                   }}});
  const auto cells = grid.expand();
  SweepOptions options;
  options.threads = 1;
  options.deterministic_timing = true;
  std::ostringstream progress;
  options.progress = &progress;
  EXPECT_THROW((void)run_sweep(cells, options), std::runtime_error);

  std::vector<std::string> lines;
  std::istringstream in(progress.str());
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 2u) << progress.str();
  for (const std::string& line : lines) {
    if (line.find("] R=0") != std::string::npos) {
      EXPECT_EQ(line.find(" capture="), std::string::npos) << line;
      EXPECT_EQ(line.substr(line.size() - 7), " FAILED") << line;
    } else {
      EXPECT_NE(line.find("] R=1 capture="), std::string::npos) << line;
    }
  }
}

/// Accepts `budget` bytes, then fails every write — a volume that fills
/// up right after the stream header.
class FullVolumeBuffer : public std::streambuf {
 public:
  explicit FullVolumeBuffer(std::size_t budget) : budget_(budget) {}

 protected:
  int_type overflow(int_type c) override {
    if (traits_type::eq_int_type(c, traits_type::eof())) {
      return traits_type::not_eof(c);
    }
    const char byte = traits_type::to_char_type(c);
    return xsputn(&byte, 1) == 1 ? c : traits_type::eof();
  }
  std::streamsize xsputn(const char* /*data*/, std::streamsize n) override {
    const auto take = std::min(n, static_cast<std::streamsize>(budget_));
    budget_ -= static_cast<std::size_t>(take);
    return take;
  }

 private:
  std::size_t budget_;
};

TEST(SweepRunTest, StreamWriteFailureThrowsAndNeverOutrunsTheCache) {
  const std::vector<SweepCell> cells = small_cells(2);
  const std::string dir = testing::TempDir() + "/slpdas_sweep_full_volume";
  // warm = false: the first record to fail is a computed cell; true: it
  // is a cache hit (hits are recorded before any cell is scheduled).
  for (const bool warm : {false, true}) {
    SCOPED_TRACE(warm ? "cache hit first" : "computed cell first");
    std::filesystem::remove_all(dir);
    SweepOptions options;
    options.threads = 2;
    options.deterministic_timing = true;
    if (warm) {
      CellCache warmer(dir);
      options.cache = &warmer;
      options.shard_count = 2;
      (void)run_sweep(cells, options);
      options.shard_count = 1;
    }
    CellCache cache(dir);
    options.cache = &cache;

    CellStreamHeader header;
    header.name = "full_volume";
    header.base_seed = options.base_seed;
    header.grid_hash = hash_sweep_grid(cells);
    header.cells_total = cells.size();
    header.deterministic = true;
    header.threads = options.threads;
    std::ostringstream header_text;
    write_cell_stream_header(header_text, header);
    FullVolumeBuffer buffer(header_text.str().size());
    std::ostream stream(&buffer);
    write_cell_stream_header(stream, header);
    ASSERT_TRUE(stream.good());
    options.stream = &stream;

    try {
      (void)run_sweep(cells, options);
      ADD_FAILURE() << "a failed stream write did not fail the sweep";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("cell stream write failed"),
                std::string::npos)
          << error.what();
    }
    // The stream recorded no cell, so the cache stored none either.
    EXPECT_EQ(cache.stats().stores, 0u);
  }
  std::filesystem::remove_all(dir);
}

TEST(SweepRunTest, ProgressMarksCellsSkippedAfterAStreamFailure) {
  // One thread runs the cells in order: the first completes and its
  // record hits the full volume, so every later cell is skipped. Skipped
  // cells have no result either, so they report FAILED too.
  const std::vector<SweepCell> cells = small_cells(1);
  SweepOptions options;
  options.threads = 1;
  options.deterministic_timing = true;
  std::ostringstream progress;
  options.progress = &progress;
  FullVolumeBuffer buffer(0);
  std::ostream stream(&buffer);
  options.stream = &stream;
  EXPECT_THROW((void)run_sweep(cells, options), std::runtime_error);

  std::vector<std::string> lines;
  std::istringstream in(progress.str());
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), cells.size()) << progress.str();
  EXPECT_NE(lines.front().find(" capture="), std::string::npos)
      << lines.front();
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i].find(" capture="), std::string::npos) << lines[i];
    EXPECT_EQ(lines[i].substr(lines[i].size() - 7), " FAILED") << lines[i];
  }
}

TEST(SweepJsonTest, RoundTripsThroughTheV2Schema) {
  const auto cells = small_cells();
  SweepOptions options;
  options.threads = 2;
  options.base_seed = 11;
  const SweepResult sweep = run_sweep(cells, options);

  std::stringstream stream;
  write_sweep_json(stream, to_sweep_json(sweep, "sweep_test"));
  const SweepJson parsed = read_sweep_json(stream);

  EXPECT_EQ(parsed.schema, "slpdas.sweep.v2");
  EXPECT_EQ(parsed.name, "sweep_test");
  EXPECT_EQ(parsed.base_seed, 11u);
  EXPECT_EQ(parsed.threads, sweep.threads);
  EXPECT_EQ(parsed.shard_index, 0);
  EXPECT_EQ(parsed.shard_count, 1);
  EXPECT_EQ(parsed.cells_total, cells.size());
  ASSERT_EQ(parsed.cells.size(), sweep.cells.size());
  for (std::size_t i = 0; i < parsed.cells.size(); ++i) {
    const SweepJsonCell& json_cell = parsed.cells[i];
    const SweepCellResult& cell = sweep.cells[i];
    EXPECT_EQ(json_cell.index, i);
    EXPECT_EQ(json_cell.label, cell.label);
    EXPECT_EQ(json_cell.coordinates, cell.coordinates);
    EXPECT_EQ(json_cell.cell_seed, cell.cell_seed);
    EXPECT_EQ(json_cell.runs, cell.runs);
    EXPECT_EQ(json_cell.capture_trials, cell.result.capture.trials());
    EXPECT_EQ(json_cell.capture_successes, cell.result.capture.successes());
    // Doubles print with max_digits10, so the round-trip is exact.
    EXPECT_EQ(json_cell.capture_ratio, cell.result.capture.ratio());
    const auto [low, high] = cell.result.capture.wilson95();
    EXPECT_EQ(json_cell.capture_wilson95_low, low);
    EXPECT_EQ(json_cell.capture_wilson95_high, high);
    EXPECT_EQ(json_cell.delivery_ratio.count, cell.result.delivery_ratio.count());
    EXPECT_EQ(json_cell.delivery_ratio.mean, cell.result.delivery_ratio.mean());
    EXPECT_EQ(json_cell.delivery_ratio.stddev,
              cell.result.delivery_ratio.stddev());
    EXPECT_EQ(json_cell.attacker_moves.mean, cell.result.attacker_moves.mean());
    EXPECT_EQ(json_cell.slot_band_span.count,
              cell.result.slot_band_span.count());
    EXPECT_EQ(json_cell.slot_band_span.mean, cell.result.slot_band_span.mean());
    EXPECT_EQ(json_cell.schedule_density.mean,
              cell.result.schedule_density.mean());
    EXPECT_EQ(json_cell.schedule_incomplete_runs,
              cell.result.schedule_incomplete_runs);
  }
}

TEST(SweepJsonTest, RejectsLegacyV1DocumentsAsAnUnknownSchema) {
  // The v1 read path is gone: no v1 document exists any more, and one
  // must fail loudly rather than parse with fabricated shard metadata.
  std::stringstream stream(
      "{\"schema\": \"slpdas.sweep.v1\", \"name\": \"old\", \"threads\": 2, "
      "\"wall_seconds\": 0, \"cells\": []}");
  try {
    (void)read_sweep_json(stream);
    ADD_FAILURE() << "a v1 document parsed";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("unknown schema"),
              std::string::npos)
        << error.what();
  }
}

TEST(SweepJsonTest, EmptyStatsSerialiseMinMaxAsNull) {
  SweepResult sweep;
  sweep.cells.resize(1);
  sweep.cells[0].label = "empty";
  sweep.cells[0].runs = 0;
  std::stringstream stream;
  write_sweep_json(stream, to_sweep_json(sweep, "empty"));
  EXPECT_NE(stream.str().find("\"min\": null"), std::string::npos);
  const SweepJson parsed = read_sweep_json(stream);
  ASSERT_EQ(parsed.cells.size(), 1u);
  EXPECT_TRUE(std::isnan(parsed.cells[0].capture_time_s.min));
  EXPECT_TRUE(std::isnan(parsed.cells[0].capture_time_s.max));
}

/// Minimal parseable v2 document with no cells; `name_json` and
/// `wall_seconds` are spliced in verbatim.
std::string minimal_document(const std::string& name_json,
                             const std::string& wall_seconds = "0") {
  return "{\"schema\": \"slpdas.sweep.v2\", \"name\": " + name_json +
         ", \"base_seed\": 1, \"grid_hash\": 2, \"shard\": {\"index\": 0, "
         "\"count\": 1, \"cells_total\": 0}, \"threads\": 1, "
         "\"distinct_worker_threads\": 1, \"wall_seconds\": " +
         wall_seconds + ", \"cells\": []}";
}

SweepJson parse_text(const std::string& text) {
  std::stringstream stream(text);
  return read_sweep_json(stream);
}

TEST(SweepJsonTest, RejectsMalformedAndUnknownSchema) {
  EXPECT_THROW((void)parse_text("{\"schema\": \"slpdas.sweep.v999\"}"),
               std::runtime_error);
  EXPECT_THROW((void)parse_text("{\"schema\": "), std::runtime_error);
  EXPECT_THROW((void)parse_text("not json at all"), std::runtime_error);
  ASSERT_NO_THROW((void)parse_text(minimal_document("\"x\"")));
  // Wrong-typed fields must throw, not parse as empty.
  EXPECT_THROW((void)parse_text(test::replace_first(
                   minimal_document("\"x\""), "\"cells\": []", "\"cells\": 0")),
               std::runtime_error);
  // Numbers with trailing garbage must not silently truncate.
  EXPECT_THROW((void)parse_text(minimal_document("\"x\"", "1-2")),
               std::runtime_error);
  // Int fields take exact integers in 0..INT_MAX only: through a double,
  // null (NaN) and 1e300 were undefined behaviour and 2.5 truncated.
  SweepJson document;
  document.name = "x";
  document.threads = 2;
  document.cells_total = 1;
  document.cells.resize(1);
  document.cells[0].runs = 3;
  std::ostringstream written;
  write_sweep_json(written, document);
  ASSERT_NO_THROW((void)parse_text(written.str()));
  const std::pair<std::string, std::string> fields[] = {
      {"\"runs\": ", "3"}, {"\"threads\": ", "2"}, {"\"count\": ", "1"}};
  for (const auto& [field, value] : fields) {
    for (const char* bad : test::kBadIntegerTokens) {
      SCOPED_TRACE(field + bad);
      try {
        (void)parse_text(test::replace_first(written.str(), field + value + ",",
                                             field + bad + ","));
        ADD_FAILURE() << "accepted";
      } catch (const std::runtime_error& error) {
        EXPECT_TRUE(test::is_bad_integer_error(error.what())) << error.what();
      }
    }
  }
}

TEST(SweepJsonTest, DeepNestingIsATypedErrorNotACrash) {
  // Unbounded recursive descent overflowed the stack on this input.
  const std::string deep(1'000'000, '[');
  for (const std::string& text :
       {deep, "{\"schema\": " + deep, minimal_document(deep)}) {
    try {
      (void)parse_text(text);
      ADD_FAILURE() << "accepted";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("nesting deeper"),
                std::string::npos)
          << error.what();
    }
  }
}

/// Minimal parseable document with `name` spliced in verbatim, for
/// exercising the string-escape grammar through the public reader.
SweepJson parse_with_name(const std::string& name_json) {
  return parse_text(minimal_document(name_json));
}

TEST(SweepJsonTest, UnicodeEscapesRequireExactlyFourHexDigits) {
  EXPECT_EQ(parse_with_name("\"\\u0041\"").name, "A");
  EXPECT_EQ(parse_with_name("\"\\u00e9\"").name, "\xc3\xa9");  // é, 2-byte
  // std::stoi's forgiving grammar accepted all of these: fewer than four
  // digits before the closing quote, embedded whitespace and signs.
  EXPECT_THROW((void)parse_with_name("\"\\u12\""), std::runtime_error);
  EXPECT_THROW((void)parse_with_name("\"\\u12g4\""), std::runtime_error);
  EXPECT_THROW((void)parse_with_name("\"\\u 041\""), std::runtime_error);
  EXPECT_THROW((void)parse_with_name("\"\\u+041\""), std::runtime_error);
  EXPECT_THROW((void)parse_with_name("\"\\u\""), std::runtime_error);
  // Lone surrogate halves are not scalar values; encoding them as 3-byte
  // UTF-8 would emit CESU-8 garbage downstream consumers choke on.
  EXPECT_THROW((void)parse_with_name("\"\\ud800\""), std::runtime_error);
  EXPECT_THROW((void)parse_with_name("\"\\udfff\""), std::runtime_error);
}

TEST(SweepJsonTest, NumberParsingIgnoresTheProcessLocale) {
  // Under a comma-decimal locale, std::stod reads "0.05" as 0 — silently
  // zeroing every ratio in a reloaded document. from_chars never
  // consults LC_NUMERIC, so parsing must be identical in any locale.
  const char* applied = std::setlocale(LC_NUMERIC, "de_DE.UTF-8");
  if (applied == nullptr) {
    applied = std::setlocale(LC_NUMERIC, "de_DE");
  }
  if (applied == nullptr) {
    GTEST_SKIP() << "no de_DE locale available on this system";
  }
  SweepJson parsed;
  try {
    parsed = parse_text(minimal_document("\"x\"", "0.05"));
  } catch (...) {
    std::setlocale(LC_NUMERIC, "C");
    throw;
  }
  std::setlocale(LC_NUMERIC, "C");
  EXPECT_EQ(parsed.wall_seconds, 0.05);
}

// ---------------------------------------------------------------------------
// Golden fingerprints. These constants pin the behavioural contract:
// identical (grid, protocol, seed) must keep producing bit-identical
// documents across refactors of the simulator internals. If a change here
// is INTENDED (a new axis, a protocol fix), regenerate the constants and
// say so loudly in the commit message; an unintended mismatch means the
// refactor changed results. The document hash was regenerated ONCE for
// the spec-layer refactor, after a line diff of the before/after
// documents showed the only change to be the added per-cell "config"
// block — every metric byte of the PR-4 constant's document is unchanged
// (the per-metric snapshot below still pins those exact values).
// ---------------------------------------------------------------------------

std::uint64_t fnv1a_bytes(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

TEST(GoldenFingerprintTest, SmallSweepDocumentIsByteStable) {
  SweepGrid grid(small_base(3));
  grid.axis("side", {{"5",
                      [](ExperimentConfig& config) {
                        config.topology = wsn::TopologySpec::grid(5);
                      }},
                     {"7",
                      [](ExperimentConfig& config) {
                        config.topology = wsn::TopologySpec::grid(7);
                      }}});
  grid.axis("protocol",
            {{"protectionless-das",
              [](ExperimentConfig& config) {
                config.protocol = ProtocolKind::kProtectionlessDas;
              }},
             {"slp-das",
              [](ExperimentConfig& config) {
                config.protocol = ProtocolKind::kSlpDas;
              }}});
  const auto cells = grid.expand();
  EXPECT_EQ(hash_sweep_grid(cells), 0x6b90a23f404d5439ULL);

  SweepOptions options;
  options.threads = 2;
  options.base_seed = 2017;
  options.deterministic_timing = true;
  const SweepResult sweep = run_sweep(cells, options);
  std::ostringstream out;
  write_sweep_json(out, to_sweep_json(sweep, "golden"));
  // Every byte of the deterministic document: all metrics of all four
  // cells, double formatting included (regenerated for the config block;
  // see the section comment above).
  EXPECT_EQ(fnv1a_bytes(out.str()), 0x5f6355cafa2a2d15ULL);
  // The config block is present in deterministic documents (unlike perf:
  // the specs are part of the experiment's identity, not telemetry).
  EXPECT_NE(out.str().find("\"config\": {\"topology\": \"grid:5\", "
                           "\"protocol\": \"slp-das\", \"attacker\": "
                           "\"R=1,H=0,M=1,D=first-heard\", \"radio\": "
                           "\"casino-lab\"}"),
            std::string::npos);

  // A readable snapshot of one cell, so a mismatch names the drifted
  // metric instead of just a hash.
  const SweepJson document = to_sweep_json(sweep, "golden");
  ASSERT_EQ(document.cells.size(), 4u);
  const SweepJsonCell& cell = document.cells[0];
  EXPECT_EQ(cell.label, "side=5/protocol=protectionless-das");
  EXPECT_EQ(cell.capture_trials, 3u);
  EXPECT_EQ(cell.capture_successes, 0u);
  EXPECT_EQ(cell.delivery_ratio.mean, 0.88888888888888884);
  EXPECT_EQ(cell.delivery_latency_s.mean, 0.24383333333333332);
  EXPECT_EQ(cell.control_messages_per_node.mean, 12.786666666666667);
  EXPECT_EQ(cell.normal_messages_per_node.mean, 7.6799999999999997);
  EXPECT_EQ(cell.attacker_moves.mean, 7.666666666666667);
  EXPECT_EQ(cell.attacker_moves.stddev, 0.57735026918962573);
  EXPECT_EQ(document.cells[2].capture_successes, 1u);  // side=7 baseline
  // Deterministic documents must never grow the perf block — its absence
  // is what keeps them byte-identical across schema-extending releases.
  EXPECT_FALSE(cell.has_perf);
  EXPECT_EQ(out.str().find("\"perf\""), std::string::npos);
}

TEST(GoldenFingerprintTest, EveryDecisionFunctionIsByteStable) {
  // One cell per attacker decision function D on grid:7 with the Table I
  // parameters. R = 2 gives D a choice, H = 2 gives the history-avoiding
  // attacker a memory, and random draws the run's RNG. The axis is
  // unseeded, so every D faces the same seeds.
  ExperimentConfig base = small_base(4);
  base.topology = wsn::TopologySpec::grid(7);
  base.parameters = Parameters{};
  SweepGrid grid(base);
  std::vector<SweepGrid::AxisValue> attackers;
  for (const char* d :
       {"first-heard", "min-slot", "history-avoiding", "random"}) {
    const AttackerSpec spec =
        AttackerSpec::parse(std::string("R=2,H=2,M=1,D=") + d);
    attackers.push_back({d, [spec](ExperimentConfig& config) {
                           config.attacker = spec;
                         }});
  }
  grid.axis("attacker", std::move(attackers), /*seeded=*/false);
  const auto cells = grid.expand();

  SweepOptions options;
  options.threads = 2;
  options.base_seed = 2017;
  options.deterministic_timing = true;
  const SweepResult sweep = run_sweep(cells, options);
  std::ostringstream out;
  write_sweep_json(out, to_sweep_json(sweep, "golden_decisions"));
  EXPECT_EQ(fnv1a_bytes(out.str()), 0xc06dbfa9fe7cc52eULL);

  // Within one period the attacker hears transmissions in slot order, so
  // first-heard and min-slot walk alike; history avoidance and random
  // choice walk differently.
  const SweepJson document = to_sweep_json(sweep, "golden_decisions");
  ASSERT_EQ(document.cells.size(), 4u);
  EXPECT_EQ(document.cells[3].config_attacker, "R=2,H=2,M=1,D=random");
  EXPECT_EQ(document.cells[0].attacker_moves.mean, 8.25);
  EXPECT_EQ(document.cells[1].attacker_moves.mean, 8.25);
  EXPECT_EQ(document.cells[2].attacker_moves.mean, 7.5);
  EXPECT_EQ(document.cells[3].attacker_moves.mean, 10.0);
}

TEST(GoldenFingerprintTest, BuiltinScenarioGridsAreStable) {
  // hash_sweep_grid is a pure function of labels, seed labels and run
  // counts: these pins make any accidental edit of the published grids
  // (axis values, run counts, cell order) fail loudly, for every
  // registered scenario.
  ScenarioRegistry registry;
  register_builtin_scenarios(registry);
  const ScenarioOptions defaults;
  ScenarioOptions smoke;
  smoke.smoke = true;
  const struct {
    const char* name;
    std::uint64_t default_hash;
    std::uint64_t smoke_hash;
  } kExpected[] = {
      {"fig5a", 0x5fac2a7b22a1559eULL, 0xc8d00cbfeff20f42ULL},
      {"fig5b", 0x002a88a5fe1b8222ULL, 0x806429abca4b85a6ULL},
      {"cmp_phantom", 0x183568ab2851a735ULL, 0xa4f9992683e6069aULL},
      {"abl_noise", 0x631b7f613fae5610ULL, 0x940f2a5066861ca5ULL},
      {"abl_attacker", 0x9808f9168d0bcac3ULL, 0x07f251f2c827ce3fULL},
      {"abl_safety", 0x346083cfd3388db4ULL, 0x30cbe208ee5cf6deULL},
      {"abl_schedulers", 0x3fdf061e59f31affULL, 0x69545bb5124c328dULL},
      {"table1", 0x75bc30645cae4631ULL, 0x69545bb5124c328dULL},
      {"message_overhead", 0xd3a6adb836cb1f80ULL, 0xd95fa185d8def65cULL},
      {"perf_sim", 0x8cd7e075782f686fULL, 0x08cc739a1a98e897ULL},
      {"perf_verify", 0x4e0b77f3247507cdULL, 0x69545bb5124c328dULL},
      {"scal_grid", 0x654a91a788372d1dULL, 0x7c52d94e18c97bddULL},
      {"custom", 0x36846ffce9ad7886ULL, 0xbae69f6c4f5eace6ULL},
  };
  ASSERT_EQ(registry.scenarios().size(), std::size(kExpected));
  for (const auto& expected : kExpected) {
    SCOPED_TRACE(expected.name);
    const Scenario* scenario = registry.find(expected.name);
    ASSERT_NE(scenario, nullptr);
    EXPECT_EQ(hash_sweep_grid(scenario->cells(defaults)),
              expected.default_hash);
    EXPECT_EQ(hash_sweep_grid(scenario->cells(smoke)),
              expected.smoke_hash);
  }
}

TEST(GoldenFingerprintTest, PerfSimResultsAndCountsAreStable) {
  // The registered perf_sim default grid (grid 11/15/21 x protectionless /
  // SLP-DAS, 20 runs, seed 101) with real clocks, so every cell carries
  // its perf block. The event, delivery and timer-fire counts are sums of
  // deterministic runs, so they are pinned exactly; only the clocks (and
  // how many pool threads happened to pick up work) are zeroed before
  // the document is hashed.
  ScenarioRegistry registry;
  register_builtin_scenarios(registry);
  const Scenario* scenario = registry.find("perf_sim");
  ASSERT_NE(scenario, nullptr);
  ThreadPool pool(2);
  SweepJson document =
      run_scenario(*scenario, ScenarioOptions{}, ScenarioExecution{}, pool);
  document.wall_seconds = 0.0;
  document.distinct_worker_threads = 0;
  for (SweepJsonCell& cell : document.cells) {
    ASSERT_TRUE(cell.has_perf) << cell.label;
    cell.wall_seconds = 0.0;
    cell.perf_events_per_sec = 0.0;
  }
  std::ostringstream out;
  write_sweep_json(out, document);
  EXPECT_EQ(fnv1a_bytes(out.str()), 0xddff70c1e073007fULL);

  const struct {
    const char* label;
    std::uint64_t events;
    std::uint64_t deliveries;
    std::uint64_t timer_fires;
  } kExpected[] = {
      {"side=11/protocol=protectionless-das", 126170, 75766, 50404},
      {"side=11/protocol=slp-das", 137025, 81675, 55350},
      {"side=15/protocol=protectionless-das", 268095, 172706, 95389},
      {"side=15/protocol=slp-das", 287898, 182197, 105701},
      {"side=21/protocol=protectionless-das", 616864, 422413, 194451},
      {"side=21/protocol=slp-das", 637224, 428054, 209170},
  };
  ASSERT_EQ(document.cells.size(), std::size(kExpected));
  for (std::size_t i = 0; i < document.cells.size(); ++i) {
    const SweepJsonCell& cell = document.cells[i];
    SCOPED_TRACE(cell.label);
    EXPECT_EQ(cell.label, kExpected[i].label);
    EXPECT_EQ(cell.runs, 20);
    EXPECT_EQ(cell.perf_events, kExpected[i].events);
    EXPECT_EQ(cell.perf_deliveries, kExpected[i].deliveries);
    EXPECT_EQ(cell.perf_timer_fires, kExpected[i].timer_fires);
  }
}

TEST(SweepJsonTest, PerfBlockRoundTripsInRealClockDocuments) {
  const auto cells = small_cells(2);
  SweepOptions options;
  options.threads = 2;
  options.base_seed = 11;
  const SweepResult sweep = run_sweep(cells, options);  // real clocks

  std::stringstream stream;
  write_sweep_json(stream, to_sweep_json(sweep, "perf_roundtrip"));
  EXPECT_NE(stream.str().find("\"perf\""), std::string::npos);
  const SweepJson parsed = read_sweep_json(stream);
  ASSERT_EQ(parsed.cells.size(), sweep.cells.size());
  for (std::size_t i = 0; i < parsed.cells.size(); ++i) {
    const SweepJsonCell& cell = parsed.cells[i];
    ASSERT_TRUE(cell.has_perf) << cell.label;
    EXPECT_EQ(cell.perf_events, sweep.cells[i].result.events_executed);
    EXPECT_EQ(cell.perf_deliveries, sweep.cells[i].result.deliveries);
    EXPECT_EQ(cell.perf_timer_fires, sweep.cells[i].result.timer_fires);
    EXPECT_GT(cell.perf_events, 0u);
    EXPECT_GE(cell.perf_events,
              cell.perf_deliveries + cell.perf_timer_fires);
    if (cell.wall_seconds > 0.0) {
      EXPECT_GT(cell.perf_events_per_sec, 0.0);
    }
  }
  // ...and the reparse re-serialises byte-identically, perf block included.
  std::ostringstream rewritten;
  write_sweep_json(rewritten, parsed);
  EXPECT_EQ(rewritten.str(), stream.str());
}

TEST(SweepJsonTest, EscapesLabelStrings) {
  SweepResult sweep;
  sweep.cells.resize(1);
  sweep.cells[0].label = "quote\" back\\slash\nnewline";
  sweep.cells[0].runs = 0;
  std::stringstream stream;
  write_sweep_json(stream, to_sweep_json(sweep, "escapes"));
  const SweepJson parsed = read_sweep_json(stream);
  ASSERT_EQ(parsed.cells.size(), 1u);
  EXPECT_EQ(parsed.cells[0].label, "quote\" back\\slash\nnewline");
}

}  // namespace
}  // namespace slpdas::core
