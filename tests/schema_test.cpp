// Validates every serialised document shape against the versioned schema
// files in tests/schemas/ using the C++ subset validator in
// schema_validator.hpp — the same validator and files CI applies to
// generated artifacts through the slpdas_schema_validate CLI. Covers
// freshly generated sweep documents (both timing modes), cell-stream
// lines, cell-cache entry files, fleet markers and done records, the
// committed bench_results/ baselines,
// and that the validator actually rejects shape violations (so a green
// run means something).
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "schema_validator.hpp"
#include "slpdas/core/cell_cache.hpp"
#include "slpdas/core/fleet.hpp"
#include "slpdas/core/scenario.hpp"
#include "slpdas/core/sweep.hpp"
#include "test_util.hpp"

namespace slpdas::core {
namespace {

using test::SchemaSet;
using Value = core::detail::JsonParser::Value;

constexpr const char* kSweepSchema = "slpdas.sweep.v2.schema.json";
constexpr const char* kCellSchema = "slpdas.cell.v1.schema.json";
constexpr const char* kCacheSchema = "slpdas.cachecell.v1.schema.json";
constexpr const char* kShardMapSchemaFile = "slpdas.shardmap.v2.schema.json";
constexpr const char* kFleetBenchSchema = "slpdas.fleetbench.v1.schema.json";

ExperimentConfig small_base(int runs = 2) {
  ExperimentConfig config;
  config.topology = wsn::TopologySpec::grid(5);
  config.parameters = test::fast_parameters(24);
  config.radio = RadioKind::kCasinoLab;
  config.runs = runs;
  config.check_schedules = false;
  return config;
}

/// Two cheap cells (one protocol axis) — enough to exercise every field.
std::vector<SweepCell> small_cells(int runs = 2) {
  SweepGrid grid(small_base(runs));
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

SchemaSet schemas() { return SchemaSet(SLPDAS_SCHEMA_DIR); }

Value parse_text(const std::string& text) {
  core::detail::JsonParser parser(text);
  return parser.parse();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) {
      lines.push_back(line);
    }
  }
  return lines;
}

testing::AssertionResult no_errors(const std::vector<std::string>& errors) {
  if (errors.empty()) {
    return testing::AssertionSuccess();
  }
  auto result = testing::AssertionFailure();
  for (const std::string& error : errors) {
    result << "\n  " << error;
  }
  return result;
}

TEST(SchemaFilesTest, AllSchemaFilesParse) {
  SchemaSet set = schemas();
  for (const char* name :
       {kSweepSchema, kCellSchema, kCacheSchema, kShardMapSchemaFile,
        kFleetBenchSchema}) {
    EXPECT_NO_THROW(set.load(name)) << name;
  }
}

TEST(JsonParserTest, NestingIsBoundedAtMaxDepth) {
  using detail::JsonParser;
  const auto nested = [](int depth) {
    const auto levels = static_cast<std::size_t>(depth);
    return std::string(levels, '[') + std::string(levels, ']');
  };
  EXPECT_NO_THROW((void)JsonParser(nested(JsonParser::kMaxDepth)).parse());
  EXPECT_THROW((void)JsonParser(nested(JsonParser::kMaxDepth + 1)).parse(),
               std::runtime_error);
}

TEST(SchemaSweepTest, DeterministicDocumentValidates) {
  SweepOptions options;
  options.threads = 2;
  options.base_seed = 7;
  options.deterministic_timing = true;
  const SweepResult result = run_sweep(small_cells(), options);
  std::ostringstream out;
  write_sweep_json(out, result, "schema_smoke");
  const Value document = parse_text(out.str());
  EXPECT_TRUE(no_errors(schemas().validate(document, kSweepSchema)));
  // Deterministic cells must NOT carry the perf block.
  for (const Value& cell : document.at("cells").as_array()) {
    EXPECT_EQ(cell.find("perf"), nullptr);
  }
}

TEST(SchemaSweepTest, RealClockDocumentCarriesPerfAndValidates) {
  SweepOptions options;
  options.threads = 2;
  options.base_seed = 7;
  const SweepResult result = run_sweep(small_cells(), options);
  std::ostringstream out;
  write_sweep_json(out, result, "schema_smoke");
  const Value document = parse_text(out.str());
  EXPECT_TRUE(no_errors(schemas().validate(document, kSweepSchema)));
  for (const Value& cell : document.at("cells").as_array()) {
    EXPECT_NE(cell.find("perf"), nullptr);
  }
}

TEST(SchemaCellStreamTest, HeaderAndRecordsValidate) {
  const auto cells = small_cells();
  SweepOptions options;
  options.threads = 2;
  options.base_seed = 7;
  options.deterministic_timing = true;
  std::ostringstream stream;
  CellStreamHeader header;
  header.name = "schema_smoke";
  header.base_seed = options.base_seed;
  header.grid_hash = hash_sweep_grid(cells);
  header.shard_index = 0;
  header.shard_count = 1;
  header.cells_total = cells.size();
  header.deterministic = true;
  header.threads = options.threads;
  write_cell_stream_header(stream, header);
  options.stream = &stream;
  (void)run_sweep(cells, options);

  const std::vector<std::string> lines = split_lines(stream.str());
  ASSERT_EQ(lines.size(), 1 + cells.size());
  SchemaSet set = schemas();
  EXPECT_TRUE(no_errors(set.validate(
      parse_text(lines[0]), std::string(kCellSchema) + "#/definitions/header")));
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_TRUE(no_errors(
        set.validate(parse_text(lines[i]),
                     std::string(kCellSchema) + "#/definitions/record")))
        << "record line " << i;
  }
}

TEST(SchemaCacheTest, StoredEntryLinesValidate) {
  const auto cells = small_cells();
  const std::string dir = testing::TempDir() + "/slpdas_schema_cache";
  std::filesystem::remove_all(dir);
  CellCache cache(dir);
  SweepOptions options;
  options.threads = 2;
  options.base_seed = 7;
  options.deterministic_timing = true;
  options.cache = &cache;
  (void)run_sweep(cells, options);
  ASSERT_EQ(cache.stats().stores, cells.size());

  SchemaSet set = schemas();
  std::size_t entries = 0;
  for (const auto& file : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(file.path(), std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    const std::vector<std::string> lines = split_lines(text.str());
    ASSERT_EQ(lines.size(), 2u) << file.path();
    EXPECT_TRUE(no_errors(
        set.validate(parse_text(lines[0]),
                     std::string(kCacheSchema) + "#/definitions/header")))
        << file.path();
    EXPECT_TRUE(no_errors(
        set.validate(parse_text(lines[1]),
                     std::string(kCacheSchema) + "#/definitions/payload")))
        << file.path();
    ++entries;
  }
  EXPECT_EQ(entries, cells.size());
  std::filesystem::remove_all(dir);
}

TEST(SchemaShardMapTest, EveryRecordKindValidatesAgainstItsDefinition) {
  // The exact bytes the fleet writers produce, one fragment per marker
  // kind — the same fragments CI applies to a real fleet directory via
  // slpdas_schema_validate.
  ShardMapManifest manifest;
  manifest.name = "schema_smoke";
  manifest.base_seed = 7;
  manifest.grid_hash = 12345;
  manifest.cells_total = 5;
  manifest.deterministic = true;
  manifest.workers = 4;
  manifest.worker_threads = 2;
  manifest.threads_total = 8;
  ShardMapError cell_error;
  cell_error.cell = 3;
  cell_error.worker = "w1";
  cell_error.message = "runs threw";
  ShardMapError worker_error;
  worker_error.worker = "w2";
  worker_error.message = "bad manifest";
  const std::pair<const char*, std::string> records[] = {
      {"manifest", format_shardmap_manifest(manifest)},
      {"claim", format_shardmap_claim({2, "w0", 4321})},
      {"heartbeat", format_shardmap_heartbeat({"w0", 4321, 17})},
      {"error", format_shardmap_error(cell_error)},
      {"error", format_shardmap_error(worker_error)},
  };
  SchemaSet set = schemas();
  for (const auto& [definition, record] : records) {
    EXPECT_TRUE(no_errors(set.validate(
        parse_text(record), std::string(kShardMapSchemaFile) +
                                "#/definitions/" + definition)))
        << definition << ": " << record;
  }
  // The schema root IS the manifest definition (shardmap.json's content).
  EXPECT_TRUE(no_errors(set.validate(
      parse_text(format_shardmap_manifest(manifest)), kShardMapSchemaFile)));
  // And it still rejects shape drift: a claim is not a done marker.
  EXPECT_FALSE(set.validate(parse_text(format_shardmap_claim({2, "w0", 1})),
                            std::string(kShardMapSchemaFile) +
                                "#/definitions/done")
                   .empty());
}

TEST(SchemaShardMapTest, RealDoneRecordsValidateAgainstTheDoneDefinition) {
  // A lone fleet worker over the two-cell grid: its claims/*.done files
  // are the exact records CI validates after its fleet run.
  const std::string dir = ::testing::TempDir() + "slpdas_schema_fleet";
  std::filesystem::remove_all(dir);
  Scenario scenario;
  scenario.name = "schema_fleet";
  scenario.reference = "test fixture";
  scenario.summary = "two cheap cells";
  scenario.default_runs = 2;
  scenario.default_seed = 7;
  scenario.make_cells = [](const ScenarioOptions&) { return small_cells(); };
  scenario.report = [](std::ostream&, const SweepJson&,
                       const ScenarioOptions&) { return 0; };
  const auto cells = small_cells();
  ShardMapManifest manifest;
  manifest.name = scenario.name;
  manifest.base_seed = 7;
  manifest.grid_hash = hash_sweep_grid(cells);
  manifest.cells_total = cells.size();
  manifest.deterministic = true;
  manifest.workers = 1;
  manifest.worker_threads = 1;
  manifest.threads_total = 1;
  write_shardmap_manifest(dir, manifest);
  FleetWorkerOptions worker;
  worker.directory = dir;
  worker.worker = "w0";
  worker.deterministic = true;
  ASSERT_EQ(run_fleet_worker(scenario, ScenarioOptions{}, worker),
            cells.size());

  SchemaSet set = schemas();
  const ClaimDir claims(dir);
  for (std::uint64_t index = 0; index < cells.size(); ++index) {
    std::ifstream in(claims.done_path(index), std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    const std::vector<std::string> lines = split_lines(text.str());
    ASSERT_EQ(lines.size(), 1u) << claims.done_path(index);
    EXPECT_TRUE(no_errors(set.validate(
        parse_text(lines[0]),
        std::string(kShardMapSchemaFile) + "#/definitions/done")))
        << lines[0];
  }
  std::filesystem::remove_all(dir);
}

TEST(SchemaCommittedTest, BenchResultsBaselinesValidate) {
  SchemaSet set = schemas();
  std::size_t sweeps = 0;
  std::size_t fleets = 0;
  for (const auto& file :
       std::filesystem::directory_iterator(SLPDAS_BENCH_RESULTS_DIR)) {
    const std::string name = file.path().filename().string();
    if (name.find(".json") == std::string::npos) {
      continue;
    }
    std::ifstream in(file.path(), std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    const Value document = parse_text(text.str());
    const bool fleet = name.rfind("BENCH_fleet", 0) == 0;
    const char* schema = fleet ? kFleetBenchSchema : kSweepSchema;
    EXPECT_TRUE(no_errors(set.validate(document, schema))) << name;
    (fleet ? fleets : sweeps) += 1;
  }
  // The committed baseline set: keep these counts in step with
  // bench_results/ so a new artifact cannot dodge validation.
  EXPECT_GE(sweeps, 2u);
  EXPECT_GE(fleets, 1u);
}

TEST(SchemaViolationTest, ValidatorRejectsShapeDrift) {
  SweepOptions options;
  options.threads = 1;
  options.base_seed = 7;
  options.deterministic_timing = true;
  const SweepResult result = run_sweep(small_cells(), options);
  std::ostringstream out;
  write_sweep_json(out, result, "schema_smoke");
  SchemaSet set = schemas();

  // Missing required key.
  Value document = parse_text(out.str());
  std::erase_if(document.object,
                [](const auto& entry) { return entry.first == "grid_hash"; });
  EXPECT_FALSE(set.validate(document, kSweepSchema).empty());

  // Wrong scalar type.
  document = parse_text(out.str());
  for (auto& [key, value] : document.object) {
    if (key == "name") {
      value = Value{};  // null where a string is required
    }
  }
  EXPECT_FALSE(set.validate(document, kSweepSchema).empty());

  // Unexpected key where additionalProperties is false.
  document = parse_text(out.str());
  document.object.emplace_back("surprise", Value{});
  EXPECT_FALSE(set.validate(document, kSweepSchema).empty());

  // Wrong schema tag.
  document = parse_text(out.str());
  for (auto& [key, value] : document.object) {
    if (key == "schema") {
      value.string = "slpdas.sweep.v1";
    }
  }
  EXPECT_FALSE(set.validate(document, kSweepSchema).empty());
}

}  // namespace
}  // namespace slpdas::core
