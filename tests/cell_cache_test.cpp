// Content-addressed cell result cache ("slpdas.cachecell.v1").
// Covers the canonical key (every identity field feeds the hash, the
// parameter digest covers the config fields outside the four specs),
// store/lookup round-trips, validation-on-read (corrupt, truncated and
// mis-keyed entries are rejected and recomputed, never trusted),
// read-only mode, concurrent writers, scan/gc maintenance (a payload
// that contradicts its header is invalid), the
// sweep-engine integration (a warm rerun is byte-identical to the cold
// run with zero recomputes, composing with sharding and streaming), and
// the crash-safe resume: a rerun after a kill computes only the lost
// cells and reproduces the uninterrupted document.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "slpdas/core/cell_cache.hpp"
#include "slpdas/core/scenario.hpp"
#include "slpdas/core/sweep.hpp"
#include "test_util.hpp"

namespace slpdas::core {
namespace {

/// A cheap, fully-specified experiment config (the same shape the cell
/// stream tests use) every key/derivation test starts from.
ExperimentConfig cheap_config() {
  ExperimentConfig config;
  config.topology = wsn::TopologySpec::grid(5);
  config.parameters = test::fast_parameters(24);
  config.radio = RadioKind::kCasinoLab;
  config.runs = 2;
  config.check_schedules = false;
  return config;
}

std::vector<SweepCell> two_cells() {
  SweepGrid grid(cheap_config());
  grid.axis("cell", {{"0", nullptr}, {"1", nullptr}});
  return grid.expand();
}

SweepOptions deterministic_options() {
  SweepOptions options;
  options.threads = 2;
  options.base_seed = 77;
  options.deterministic_timing = true;
  return options;
}

std::string to_text(const SweepJson& document) {
  std::ostringstream out;
  write_sweep_json(out, document);
  return out.str();
}

std::string cell_text(const SweepJsonCell& cell) {
  std::ostringstream out;
  write_cell_stream_record(out, cell);
  return out.str();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---------------------------------------------------------------------------
// Key derivation
// ---------------------------------------------------------------------------

TEST(CellCacheKeyTest, KeyIsAPureFunctionOfTheConfig) {
  const CellCacheKey a = make_cell_cache_key(cheap_config(), 42, true);
  const CellCacheKey b = make_cell_cache_key(cheap_config(), 42, true);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.material(), b.material());
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_EQ(a.hex(), b.hex());
  EXPECT_EQ(a.hex().size(), 16u);
  EXPECT_EQ(a.cell_seed, 42u);
  EXPECT_EQ(a.runs, 2);
  EXPECT_TRUE(a.deterministic);
  // The material carries the schema line and every identity field, so
  // the hash preimage is self-describing.
  EXPECT_NE(a.material().find("slpdas.cachecell.v1"), std::string::npos);
  EXPECT_NE(a.material().find("cell_seed=42"), std::string::npos);
}

TEST(CellCacheKeyTest, EveryIdentityFieldFeedsTheHash) {
  const CellCacheKey base = make_cell_cache_key(cheap_config(), 42, true);
  const auto differs = [&base](CellCacheKey mutated) {
    EXPECT_NE(mutated.material(), base.material());
    EXPECT_NE(mutated.hash(), base.hash());
  };
  CellCacheKey k = base;
  k.topology = "grid:7";
  differs(k);
  k = base;
  k.protocol += "-other";
  differs(k);
  k = base;
  k.attacker += "-other";
  differs(k);
  k = base;
  k.radio += "-other";
  differs(k);
  k = base;
  k.parameters += ",extra=1";
  differs(k);
  k = base;
  k.cell_seed ^= 1;
  differs(k);
  k = base;
  k.runs += 1;
  differs(k);
  k = base;
  k.deterministic = false;
  differs(k);
}

TEST(CellCacheKeyTest, ParameterDigestCoversConfigOutsideTheSpecs) {
  // The four spec strings do not carry the Table I parameters, the
  // schedule-checking switch or the casino-lab burst model; all of them
  // change results, so all of them must change the digest (and no spec
  // string changes with them — that is exactly why the digest exists).
  const ExperimentConfig base = cheap_config();
  const std::string digest = format_parameter_digest(base);
  const auto differs = [&](ExperimentConfig mutated) {
    EXPECT_NE(format_parameter_digest(mutated), digest);
  };
  ExperimentConfig c = base;
  c.parameters.safety_factor = 2.0;
  differs(c);
  c = base;
  c.parameters.slots += 1;
  differs(c);
  c = base;
  c.parameters.search_distance += 1;
  differs(c);
  c = base;
  c.parameters.change_length = 9;
  differs(c);
  c = base;
  c.check_schedules = !base.check_schedules;
  differs(c);
  c = base;
  c.casino.burst_loss += 0.01;
  differs(c);
}

// ---------------------------------------------------------------------------
// Store / lookup on a directory
// ---------------------------------------------------------------------------

class CellCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "cell_cache_test_dir";
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// A plausible record matching `key` (the engine only caches cells it
  /// computed, but validation never needs a real simulation behind one).
  static SweepJsonCell record_for(const CellCacheKey& key) {
    SweepJsonCell cell;
    cell.index = 3;
    cell.label = "cell=3";
    cell.coordinates = {{"cell", "3"}};
    cell.cell_seed = key.cell_seed;
    cell.runs = key.runs;
    cell.has_config = true;
    cell.config_topology = key.topology;
    cell.config_protocol = key.protocol;
    cell.config_attacker = key.attacker;
    cell.config_radio = key.radio;
    cell.capture_trials = static_cast<std::uint64_t>(key.runs);
    cell.capture_successes = 1;
    cell.capture_ratio = 0.5;
    return cell;
  }

  std::string dir_;
};

TEST_F(CellCacheTest, MissThenStoreThenHit) {
  CellCache cache(dir_);
  const CellCacheKey key = make_cell_cache_key(cheap_config(), 42, true);
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);

  const SweepJsonCell stored = record_for(key);
  EXPECT_TRUE(cache.store(key, stored));
  EXPECT_EQ(cache.stats().stores, 1u);
  EXPECT_TRUE(std::filesystem::exists(cache.entry_path(key)));

  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(cell_text(*hit), cell_text(stored));
  EXPECT_EQ(cache.stats().hits, 1u);

  // A different key never sees that entry.
  EXPECT_FALSE(
      cache.lookup(make_cell_cache_key(cheap_config(), 43, true)).has_value());
}

TEST_F(CellCacheTest, RejectsCorruptTruncatedAndMiskeyedEntries) {
  CellCache cache(dir_);
  const CellCacheKey key = make_cell_cache_key(cheap_config(), 42, true);
  ASSERT_TRUE(cache.store(key, record_for(key)));
  const std::string path = cache.entry_path(key);
  const std::string good = slurp(path);

  const auto expect_rejected = [&](const std::string& content) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << content;
    }
    CellCache fresh(dir_);
    EXPECT_FALSE(fresh.lookup(key).has_value()) << content.substr(0, 40);
    EXPECT_EQ(fresh.stats().rejected, 1u);
    EXPECT_EQ(fresh.stats().hits, 0u);
  };

  expect_rejected(good + "trailing garbage\n");       // extra line
  expect_rejected(good.substr(0, good.size() / 2));   // torn write
  expect_rejected("not json at all\n{}\n");           // unparseable header
  expect_rejected("");                                // empty file
  // Nesting past the JSON parser's bound, in either line: a typed parse
  // error, where unbounded recursion overflowed the stack.
  const std::string deep(1'000'000, '[');
  expect_rejected(deep + "\n{}\n");
  expect_rejected(good.substr(0, good.find('\n') + 1) + deep + "\n");
  // A record stored under a DIFFERENT key (a renamed file, say) fails
  // identity validation even though both lines parse.
  const CellCacheKey other = make_cell_cache_key(cheap_config(), 43, true);
  {
    CellCache fresh(dir_);
    ASSERT_TRUE(fresh.store(other, record_for(other)));
  }
  std::filesystem::copy_file(
      cache.entry_path(other), path,
      std::filesystem::copy_options::overwrite_existing);
  {
    CellCache fresh(dir_);
    EXPECT_FALSE(fresh.lookup(key).has_value());
    EXPECT_EQ(fresh.stats().rejected, 1u);
  }
  // A rejected entry is recomputable: storing overwrites it cleanly.
  {
    CellCache fresh(dir_);
    ASSERT_TRUE(fresh.store(key, record_for(key)));
    EXPECT_TRUE(fresh.lookup(key).has_value());
  }
}

TEST_F(CellCacheTest, ReadOnlyCacheNeverWrites) {
  const CellCacheKey key = make_cell_cache_key(cheap_config(), 42, true);
  // Read-only over a missing directory is a legal always-miss cache —
  // nothing is created.
  {
    CellCache cache(dir_, /*read_only=*/true);
    EXPECT_TRUE(cache.read_only());
    EXPECT_FALSE(cache.lookup(key).has_value());
    EXPECT_FALSE(cache.store(key, record_for(key)));
    EXPECT_EQ(cache.stats().stores, 0u);
    EXPECT_FALSE(std::filesystem::exists(dir_));
  }
  // Read-only over a populated directory serves hits but stays inert.
  {
    CellCache writable(dir_);
    ASSERT_TRUE(writable.store(key, record_for(key)));
  }
  CellCache cache(dir_, /*read_only=*/true);
  EXPECT_TRUE(cache.lookup(key).has_value());
  const CellCacheKey other = make_cell_cache_key(cheap_config(), 43, true);
  EXPECT_FALSE(cache.store(other, record_for(other)));
  EXPECT_FALSE(std::filesystem::exists(cache.entry_path(other)));
}

TEST_F(CellCacheTest, ConcurrentWritersOfOneKeyAreSafe) {
  // The sweep engine stores from its workers; two processes may also race
  // on one key. Both write the same canonical bytes through unique tmp
  // files + atomic rename, so the surviving entry is always whole.
  CellCache cache(dir_);
  const CellCacheKey key = make_cell_cache_key(cheap_config(), 42, true);
  const SweepJsonCell record = record_for(key);
  std::vector<std::thread> writers;
  for (int i = 0; i < 8; ++i) {
    writers.emplace_back([&cache, &key, &record] {
      for (int j = 0; j < 25; ++j) {
        (void)cache.store(key, record);
      }
    });
  }
  for (std::thread& t : writers) {
    t.join();
  }
  EXPECT_EQ(cache.stats().store_failures, 0u);
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(cell_text(*hit), cell_text(record));
  const CellCacheScanReport scan = scan_cell_cache(dir_);
  EXPECT_EQ(scan.valid, 1u);
  EXPECT_EQ(scan.invalid, 0u);
  EXPECT_TRUE(scan.temp_files.empty());
}

TEST_F(CellCacheTest, ScanAndGcSeparateValidInvalidAndForeignFiles) {
  CellCache cache(dir_);
  const CellCacheKey key = make_cell_cache_key(cheap_config(), 42, true);
  ASSERT_TRUE(cache.store(key, record_for(key)));
  const CellCacheKey bad = make_cell_cache_key(cheap_config(), 43, true);
  ASSERT_TRUE(cache.store(bad, record_for(bad)));
  {
    std::ofstream out(cache.entry_path(bad),
                      std::ios::binary | std::ios::app);
    out << "trailing garbage\n";
  }
  const std::string tmp_path =
      cache.entry_path(key) + ".tmp.123.deadbeef";
  {
    std::ofstream out(tmp_path, std::ios::binary);
    out << "half-written";
  }
  const std::string foreign = dir_ + "/notes.txt";
  {
    std::ofstream out(foreign, std::ios::binary);
    out << "operator notes — not the cache's to manage";
  }

  const CellCacheScanReport scan = scan_cell_cache(dir_);
  EXPECT_EQ(scan.entries.size(), 2u);
  EXPECT_EQ(scan.valid, 1u);
  EXPECT_EQ(scan.invalid, 1u);
  EXPECT_EQ(scan.temp_files.size(), 1u);

  const CellCacheGcReport gc = gc_cell_cache(dir_);
  EXPECT_EQ(gc.removed_invalid, 1u);
  EXPECT_EQ(gc.removed_temp, 1u);
  EXPECT_GT(gc.reclaimed_bytes, 0u);
  EXPECT_TRUE(std::filesystem::exists(cache.entry_path(key)));
  EXPECT_FALSE(std::filesystem::exists(cache.entry_path(bad)));
  EXPECT_FALSE(std::filesystem::exists(tmp_path));
  EXPECT_TRUE(std::filesystem::exists(foreign));

  const CellCacheScanReport after = scan_cell_cache(dir_);
  EXPECT_EQ(after.valid, 1u);
  EXPECT_EQ(after.invalid, 0u);
  EXPECT_TRUE(after.temp_files.empty());
}

TEST_F(CellCacheTest, ScanAndLookupRejectANonIntegerRunCount) {
  // `cache verify` (scan_cell_cache) and lookup both rebuild the key from
  // the entry header; its run count must be an exact integer in
  // 0..INT_MAX — 2.5 used to truncate into a valid-looking key.
  const CellCacheKey key = make_cell_cache_key(cheap_config(), 42, true);
  {
    CellCache cache(dir_);
    ASSERT_TRUE(cache.store(key, record_for(key)));
  }
  const std::string path = CellCache(dir_).entry_path(key);
  const std::string good = slurp(path);
  const std::string runs = "\"runs\": " + std::to_string(key.runs);
  for (const char* bad : test::kBadIntegerTokens) {
    SCOPED_TRACE(bad);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << test::replace_first(good, runs, std::string("\"runs\": ") + bad);
    }
    const CellCacheScanReport scan = scan_cell_cache(dir_);
    ASSERT_EQ(scan.entries.size(), 1u);
    EXPECT_FALSE(scan.entries[0].valid);
    EXPECT_TRUE(test::is_bad_integer_error(scan.entries[0].error))
        << scan.entries[0].error;
    CellCache fresh(dir_);
    EXPECT_FALSE(fresh.lookup(key).has_value());
    EXPECT_EQ(fresh.stats().rejected, 1u);
  }
}

TEST_F(CellCacheTest, ScanAndLookupRejectAPayloadContradictingItsHeader) {
  // The header's key is intact and hashes right, but the payload's config
  // block names another topology: the entry is not the experiment it
  // claims to be.
  const CellCacheKey key = make_cell_cache_key(cheap_config(), 42, true);
  {
    CellCache cache(dir_);
    ASSERT_TRUE(cache.store(key, record_for(key)));
  }
  const std::string path = CellCache(dir_).entry_path(key);
  const std::string good = slurp(path);
  const std::size_t payload_at = good.find('\n') + 1;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << good.substr(0, payload_at)
        << test::replace_first(good.substr(payload_at),
                               "\"topology\": \"grid:5\"",
                               "\"topology\": \"grid:99\"");
  }
  const CellCacheScanReport scan = scan_cell_cache(dir_);
  ASSERT_EQ(scan.entries.size(), 1u);
  EXPECT_FALSE(scan.entries[0].valid);
  EXPECT_EQ(scan.invalid, 1u);
  CellCache fresh(dir_);
  EXPECT_FALSE(fresh.lookup(key).has_value());
  EXPECT_EQ(fresh.stats().rejected, 1u);
}

TEST_F(CellCacheTest, ScanThrowsOnAMissingDirectory) {
  EXPECT_THROW((void)scan_cell_cache(dir_ + "/nope"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Sweep-engine integration
// ---------------------------------------------------------------------------

class SweepCacheTest : public CellCacheTest {};

TEST_F(SweepCacheTest, WarmRerunIsBitIdenticalWithZeroRecomputes) {
  const auto cells = two_cells();
  const std::string reference =
      to_text(to_sweep_json(run_sweep(cells, deterministic_options()), "t"));

  SweepOptions options = deterministic_options();
  CellCache cold(dir_);
  options.cache = &cold;
  const std::string first =
      to_text(to_sweep_json(run_sweep(cells, options), "t"));
  EXPECT_EQ(first, reference);  // caching never changes the document
  EXPECT_EQ(cold.stats().hits, 0u);
  EXPECT_EQ(cold.stats().misses, cells.size());
  EXPECT_EQ(cold.stats().stores, cells.size());

  CellCache warm(dir_);
  options.cache = &warm;
  const std::string second =
      to_text(to_sweep_json(run_sweep(cells, options), "t"));
  EXPECT_EQ(second, reference);
  EXPECT_EQ(warm.stats().hits, cells.size());
  EXPECT_EQ(warm.stats().misses, 0u);
  EXPECT_EQ(warm.stats().stores, 0u);
}

TEST_F(SweepCacheTest, ACorruptEntryIsRecomputedNotTrusted) {
  const auto cells = two_cells();
  SweepOptions options = deterministic_options();
  CellCache cold(dir_);
  options.cache = &cold;
  const std::string reference =
      to_text(to_sweep_json(run_sweep(cells, options), "t"));

  // Corrupt one entry in place (flip the payload line's tail).
  const CellCacheScanReport scan = scan_cell_cache(dir_);
  ASSERT_EQ(scan.valid, 2u);
  {
    std::ofstream out(scan.entries.front().path,
                      std::ios::binary | std::ios::app);
    out << "x";
  }

  CellCache warm(dir_);
  options.cache = &warm;
  const std::string rerun =
      to_text(to_sweep_json(run_sweep(cells, options), "t"));
  EXPECT_EQ(rerun, reference);
  EXPECT_EQ(warm.stats().hits, 1u);
  EXPECT_EQ(warm.stats().rejected, 1u);
  EXPECT_EQ(warm.stats().stores, 1u);  // the recompute repaired the entry
  EXPECT_EQ(scan_cell_cache(dir_).valid, 2u);
}

TEST_F(SweepCacheTest, HitsComposeWithShardingBitForBit) {
  const auto cells = two_cells();
  const std::string reference =
      to_text(to_sweep_json(run_sweep(cells, deterministic_options()), "t"));

  // Warm the cache with an unsharded run, then serve each shard from it:
  // shard documents must stay bit-identical to uncached shards, so the
  // merge reproduces the unsharded document.
  {
    SweepOptions options = deterministic_options();
    CellCache cold(dir_);
    options.cache = &cold;
    (void)run_sweep(cells, options);
  }
  std::vector<SweepJson> shards;
  for (int i = 0; i < 2; ++i) {
    SweepOptions options = deterministic_options();
    options.shard_index = i;
    options.shard_count = 2;
    CellCache warm(dir_);
    options.cache = &warm;
    shards.push_back(to_sweep_json(run_sweep(cells, options), "t"));
    EXPECT_EQ(warm.stats().hits, 1u);
    EXPECT_EQ(warm.stats().misses, 0u);
  }
  EXPECT_EQ(to_text(merge_sweep_shards(std::move(shards))), reference);
}

TEST_F(SweepCacheTest, HitsAreStreamedLikeComputedCells) {
  // The warm run's stream must be byte-identical to the cold run's, so a
  // fold (or a fleet done record) cannot tell a cache hit from a
  // simulation. One worker: computed records land in the stream in
  // completion order, which only equals the probe (grid) order the warm
  // run uses when the cold run is serial — the byte comparison needs that.
  const auto cells = two_cells();
  SweepOptions options = deterministic_options();
  options.threads = 1;

  CellCache cold(dir_);
  options.cache = &cold;
  std::ostringstream cold_stream;
  options.stream = &cold_stream;
  const std::string cold_doc =
      to_text(to_sweep_json(run_sweep(cells, options), "t"));
  EXPECT_EQ(cold.stats().stores, 2u);

  CellCache warm(dir_);
  options.cache = &warm;
  std::ostringstream warm_stream;
  options.stream = &warm_stream;
  const std::string warm_doc =
      to_text(to_sweep_json(run_sweep(cells, options), "t"));
  EXPECT_EQ(warm.stats().hits, 2u);
  EXPECT_EQ(warm.stats().misses, 0u);
  EXPECT_EQ(warm_doc, cold_doc);
  EXPECT_EQ(warm_stream.str(), cold_stream.str());
}

TEST_F(SweepCacheTest, AHitGraftsTheCurrentGridsPositionOntoTheRecord) {
  // Two grids over the SAME experiment (equal seed_label, so equal
  // cell_seed and equal key) but different display labels: the second
  // grid's document must carry ITS labels, served from the first grid's
  // stored result.
  const auto make = [](const std::string& axis) {
    SweepGrid grid(cheap_config());
    grid.axis(axis, {{"0", nullptr}});
    std::vector<SweepCell> cells = grid.expand();
    cells.front().seed_label = "shared";
    return cells;
  };
  SweepOptions options = deterministic_options();
  CellCache cold(dir_);
  options.cache = &cold;
  (void)run_sweep(make("cell"), options);
  ASSERT_EQ(cold.stats().stores, 1u);

  CellCache warm(dir_);
  options.cache = &warm;
  const SweepJson renamed =
      to_sweep_json(run_sweep(make("renamed"), options), "t");
  EXPECT_EQ(warm.stats().hits, 1u);
  ASSERT_EQ(renamed.cells.size(), 1u);
  EXPECT_EQ(renamed.cells.front().label, "renamed=0");
  ASSERT_EQ(renamed.cells.front().coordinates.size(), 1u);
  EXPECT_EQ(renamed.cells.front().coordinates.front().first, "renamed");
}

// ---------------------------------------------------------------------------
// Kill-and-resume through run_scenario: a rerun over the cache
// ---------------------------------------------------------------------------

/// Four cheap cells on `radio`: enough that a kill can land between them.
Scenario resume_scenario(RadioKind radio = RadioKind::kCasinoLab) {
  Scenario scenario;
  scenario.name = "cell_cache_test";
  scenario.reference = "test fixture";
  scenario.summary = "four cheap cells";
  scenario.default_runs = 2;
  scenario.default_seed = 77;
  scenario.make_cells = [radio](const ScenarioOptions&) {
    ExperimentConfig base = cheap_config();
    base.radio = radio;
    SweepGrid grid(base);
    grid.axis("cell", {{"0", nullptr}, {"1", nullptr}, {"2", nullptr},
                       {"3", nullptr}});
    return grid.expand();
  };
  scenario.report = [](std::ostream&, const SweepJson&,
                       const ScenarioOptions&) { return 0; };
  return scenario;
}

class CacheResumeTest : public CellCacheTest {
 protected:
  /// The scenario's document, through the cache when one is given.
  static std::string run(const Scenario& scenario, CellCache* cache,
                         const ScenarioOptions& options = {}) {
    ThreadPool pool(2);
    ScenarioExecution execution;
    execution.deterministic_timing = true;
    execution.cache = cache;
    return to_text(run_scenario(scenario, options, execution, pool));
  }
};

TEST_F(CacheResumeTest, ARerunAfterAKillRunsOnlyTheLostCells) {
  const Scenario scenario = resume_scenario();
  const std::string uninterrupted = run(scenario, nullptr);
  {
    CellCache cold(dir_);
    EXPECT_EQ(run(scenario, &cold), uninterrupted);
  }
  // Reconstruct what a SIGKILL leaves behind: the entries of the cells
  // stored before the kill, and a torn temporary of one being stored.
  const CellCacheScanReport stored = scan_cell_cache(dir_);
  ASSERT_EQ(stored.valid, 4u);
  const std::string torn = slurp(stored.entries[1].path);
  for (const std::size_t lost : {1u, 3u}) {
    ASSERT_TRUE(std::filesystem::remove(stored.entries[lost].path));
  }
  {
    std::ofstream out(stored.entries[1].path + ".tmp.4242.1",
                      std::ios::binary);
    out << torn.substr(0, torn.size() / 2);
  }

  CellCache warm(dir_);
  EXPECT_EQ(run(scenario, &warm), uninterrupted);
  EXPECT_EQ(warm.stats().hits, 2u);
  EXPECT_EQ(warm.stats().misses, 2u);
  EXPECT_EQ(warm.stats().rejected, 0u);
  EXPECT_EQ(warm.stats().stores, 2u);  // exactly the deleted cells
  // The rerun restored every entry; the torn temporary is gc's to remove.
  const CellCacheScanReport after = scan_cell_cache(dir_);
  EXPECT_EQ(after.valid, 4u);
  EXPECT_EQ(after.invalid, 0u);
  EXPECT_EQ(after.temp_files.size(), 1u);
}

TEST_F(CacheResumeTest, TheSameLabelsOnAnotherRadioAreNeverServed) {
  // The grid hash covers labels and run counts, not the cells' configs;
  // the cache key covers the radio, so a rerun with the same labels on
  // another radio computes every cell afresh.
  {
    CellCache ideal(dir_);
    (void)run(resume_scenario(RadioKind::kIdeal), &ideal);
  }
  const Scenario lossy = resume_scenario(RadioKind::kLossy);
  CellCache warm(dir_);
  EXPECT_EQ(run(lossy, &warm), run(lossy, nullptr));
  EXPECT_EQ(warm.stats().hits, 0u);
  EXPECT_EQ(warm.stats().misses, 4u);
}

TEST_F(CacheResumeTest, AnotherBaseSeedIsNeverServed) {
  const Scenario scenario = resume_scenario();
  {
    CellCache cold(dir_);
    (void)run(scenario, &cold);
  }
  ScenarioOptions reseeded;
  reseeded.base_seed = 1234;
  CellCache warm(dir_);
  EXPECT_EQ(run(scenario, &warm, reseeded), run(scenario, nullptr, reseeded));
  EXPECT_EQ(warm.stats().hits, 0u);
  EXPECT_EQ(warm.stats().misses, 4u);
}

}  // namespace
}  // namespace slpdas::core
