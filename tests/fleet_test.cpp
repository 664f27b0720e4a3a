// The distributed sweep fabric ("slpdas.shardmap.v2"): shardmap record
// round-trips, claims and done records that are never replaced, the
// worker loop in-process and across forked processes, the fold's
// per-cell checks, and the coordinator's failure
// handling — a worker SIGKILLed mid-cell, or stopped until its heartbeat
// goes stale, must have its claim released and its cell reassigned to a
// replacement; claims no live worker owns must expire; and the folded
// document must still be bit-identical to an unsharded single-process
// run.
#include <algorithm>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#ifndef _WIN32
#include <sys/wait.h>
#include <unistd.h>
#endif

#include <gtest/gtest.h>

#include "slpdas/core/fleet.hpp"
#include "slpdas/core/scenario.hpp"
#include "slpdas/core/sweep.hpp"
#include "test_util.hpp"

namespace slpdas::core {
namespace {

namespace fs = std::filesystem;

/// Five cheap cells — the cell_stream_test fixture shape, so the fleet's
/// byte-identity claims are checked against the same grid the stream and
/// shard tests use.
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

Scenario fleet_scenario() {
  Scenario scenario;
  scenario.name = "fleet_test";
  scenario.reference = "test fixture";
  scenario.summary = "five cheap cells";
  scenario.default_runs = 2;
  scenario.default_seed = 77;
  scenario.make_cells = [](const ScenarioOptions&) { return five_cells(); };
  scenario.report = [](std::ostream&, const SweepJson&,
                       const ScenarioOptions&) { return 0; };
  return scenario;
}

std::string to_text(const SweepJson& document) {
  std::ostringstream out;
  write_sweep_json(out, document);
  return out.str();
}

/// The unsharded single-process document of the fixture on `radio`
/// (threads = the fleet's workers x worker_threads, which is 2 in every
/// test here).
SweepJson reference_document(RadioKind radio = RadioKind::kCasinoLab) {
  SweepOptions options;
  options.threads = 2;
  options.base_seed = 77;
  options.deterministic_timing = true;
  return to_sweep_json(run_sweep(five_cells(radio), options), "fleet_test");
}

/// The document every fleet variant must reproduce byte for byte.
std::string reference_text() { return to_text(reference_document()); }

/// The manifest run_fleet would write for this fixture.
ShardMapManifest fixture_manifest(int workers, int worker_threads) {
  const auto cells = five_cells();
  ShardMapManifest manifest;
  manifest.name = "fleet_test";
  manifest.base_seed = 77;
  manifest.grid_hash = hash_sweep_grid(cells);
  manifest.cells_total = cells.size();
  manifest.deterministic = true;
  manifest.workers = workers;
  manifest.worker_threads = worker_threads;
  manifest.threads_total = workers * worker_threads;
  return manifest;
}

FleetWorkerOptions worker_options(const std::string& dir,
                                  const std::string& worker, int threads) {
  FleetWorkerOptions options;
  options.directory = dir;
  options.worker = worker;
  options.threads = threads;
  options.deterministic = true;
  options.heartbeat_interval_ms = 50;
  return options;
}

class FleetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = ::testing::TempDir() + "slpdas_fleet_" + info->name();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string dir_;
};

// ---------------------------------------------------------------------------
// Shardmap records
// ---------------------------------------------------------------------------

TEST(ShardMapRecordTest, AllRecordKindsRoundTrip) {
  ShardMapManifest manifest;
  manifest.name = "fleet \"quoted\" name";
  manifest.base_seed = 77;
  manifest.grid_hash = 0xdeadbeefULL;
  manifest.cells_total = 5;
  manifest.deterministic = true;
  manifest.workers = 4;
  manifest.worker_threads = 2;
  manifest.threads_total = 8;
  const ShardMapManifest manifest2 =
      parse_shardmap_manifest(format_shardmap_manifest(manifest));
  EXPECT_EQ(manifest2.name, manifest.name);
  EXPECT_EQ(manifest2.base_seed, manifest.base_seed);
  EXPECT_EQ(manifest2.grid_hash, manifest.grid_hash);
  EXPECT_EQ(manifest2.cells_total, manifest.cells_total);
  EXPECT_EQ(manifest2.deterministic, manifest.deterministic);
  EXPECT_EQ(manifest2.workers, manifest.workers);
  EXPECT_EQ(manifest2.worker_threads, manifest.worker_threads);
  EXPECT_EQ(manifest2.threads_total, manifest.threads_total);

  const ShardMapClaim claim2 =
      parse_shardmap_claim(format_shardmap_claim({3, "w0", 1234}));
  EXPECT_EQ(claim2.cell, 3u);
  EXPECT_EQ(claim2.worker, "w0");
  EXPECT_EQ(claim2.pid, 1234);

  const ShardMapHeartbeat beat2 =
      parse_shardmap_heartbeat(format_shardmap_heartbeat({"w2", 99, 41}));
  EXPECT_EQ(beat2.worker, "w2");
  EXPECT_EQ(beat2.pid, 99);
  EXPECT_EQ(beat2.seq, 41u);

  ShardMapError cell_error;
  cell_error.cell = 2;
  cell_error.worker = "w0";
  cell_error.message = "runs threw";
  const ShardMapError cell_error2 =
      parse_shardmap_error(format_shardmap_error(cell_error));
  ASSERT_TRUE(cell_error2.cell.has_value());
  EXPECT_EQ(*cell_error2.cell, 2u);
  EXPECT_EQ(cell_error2.message, "runs threw");

  ShardMapError worker_error;
  worker_error.worker = "w1";
  worker_error.message = "bad manifest";
  const ShardMapError worker_error2 =
      parse_shardmap_error(format_shardmap_error(worker_error));
  EXPECT_FALSE(worker_error2.cell.has_value());
  EXPECT_EQ(worker_error2.worker, "w1");
}

TEST(ShardMapRecordTest, ParsersRejectWrongSchemaOrType) {
  const std::string heartbeat = format_shardmap_heartbeat({"w0", 1, 2});
  // A heartbeat record is not a claim record.
  EXPECT_THROW((void)parse_shardmap_claim(heartbeat), std::runtime_error);
  // An alien schema tag.
  EXPECT_THROW((void)parse_shardmap_claim(
                   "{\"schema\": \"slpdas.shardmap.v9\", \"type\": \"claim\", "
                   "\"cell\": 1, \"worker\": \"w0\", \"pid\": 1}"),
               std::runtime_error);
  // Not JSON at all.
  EXPECT_THROW((void)parse_shardmap_manifest("not json"), std::runtime_error);
}

TEST(ShardMapRecordTest, AVersionOneManifestIsAnUnknownSchema) {
  // v1 directories kept each cell's record in a per-worker stream file;
  // their done markers hold no record, so they are refused up front.
  std::string v1 = format_shardmap_manifest(fixture_manifest(1, 1));
  const std::string tag(kShardMapSchema);
  ASSERT_EQ(tag.back(), '2');
  const std::size_t at = v1.find(tag);
  ASSERT_NE(at, std::string::npos);
  v1[at + tag.size() - 1] = '1';
  try {
    (void)parse_shardmap_manifest(v1);
    FAIL() << "a v1 manifest parsed";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("unknown schema"),
              std::string::npos)
        << error.what();
  }
}

// ---------------------------------------------------------------------------
// Claim directory
// ---------------------------------------------------------------------------

/// Every file name in `directory`.
std::vector<std::string> file_names(const std::string& directory) {
  std::vector<std::string> names;
  for (const fs::directory_entry& entry : fs::directory_iterator(directory)) {
    names.push_back(entry.path().filename().string());
  }
  return names;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST_F(FleetTest, ClaimIsExclusiveUntilReleased) {
  const ClaimDir claims(dir_);
  claims.create();
  ShardMapClaim claim;
  claim.cell = 3;
  claim.worker = "w0";
  claim.pid = 42;
  EXPECT_TRUE(claims.try_claim(claim));
  // The second claimant loses, whoever it says it is, and the winner's
  // record stands whole.
  claim.worker = "w1";
  EXPECT_FALSE(claims.try_claim(claim));
  EXPECT_EQ(parse_shardmap_claim(read_file(claims.claim_path(3))).worker,
            "w0");
  // Release (what the coordinator does once w0 is known dead) reopens it.
  claims.release_claim(3);
  EXPECT_TRUE(claims.try_claim(claim));
  EXPECT_FALSE(claims.is_done(3));
  EXPECT_TRUE(claims.mark_done(3, "{\"index\": 3}\n", true));
  EXPECT_TRUE(claims.is_done(3));
  // No claim leaves its temporary behind.
  for (const std::string& name : file_names(claims.directory())) {
    EXPECT_EQ(name.find(".tmp."), std::string::npos) << name;
  }
}

TEST_F(FleetTest, MarkDoneNeverReplacesAPublishedRecord) {
  // Two workers can finish one cell only after the first one's claim
  // expired. The first record always stands.
  const ClaimDir claims(dir_);
  claims.create();
  const std::string first = "{\"index\": 1, \"capture_successes\": 3}\n";
  const std::string other = "{\"index\": 1, \"capture_successes\": 4}\n";
  EXPECT_TRUE(claims.mark_done(1, first, true));
  // The same bytes again: accepted, nothing rewritten.
  EXPECT_FALSE(claims.mark_done(1, first, true));
  EXPECT_EQ(read_file(claims.done_path(1)), first);
  // Different bytes under deterministic timing: two workers disagree on a
  // cell whose results must not depend on who ran it.
  try {
    (void)claims.mark_done(1, other, true);
    FAIL() << "a conflicting deterministic record was accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("cell 1"), std::string::npos)
        << error.what();
  }
  EXPECT_EQ(read_file(claims.done_path(1)), first);
  // Under real-clock timing records legitimately differ (wall clocks):
  // the first one stands.
  EXPECT_FALSE(claims.mark_done(1, other, false));
  EXPECT_EQ(read_file(claims.done_path(1)), first);
  // No publication leaves its temporary behind.
  for (const std::string& name : file_names(claims.directory())) {
    EXPECT_EQ(name.find(".tmp."), std::string::npos) << name;
  }
}

TEST_F(FleetTest, ScanReportsEveryMarkerKind) {
  const ClaimDir claims(dir_);
  claims.create();
  ASSERT_TRUE(claims.try_claim({0, "w0", 10}));
  ASSERT_TRUE(claims.try_claim({1, "w1", 11}));
  // Done markers are counted by name: the poll loop never parses a
  // record (that is the fold's job).
  EXPECT_TRUE(claims.mark_done(1, "not a record\n", true));
  claims.write_heartbeat({"w0", 10, 7});
  ShardMapError error;
  error.cell = 4;
  error.worker = "w0";
  error.message = "boom";
  claims.mark_error(error);
  // A torn claim file — not one try_claim wrote, since try_claim
  // publishes whole: it is a claim owned by no worker.
  {
    std::ofstream torn(claims.claim_path(2), std::ios::binary);
    torn << "{\"schema\": \"slpdas.shard";
  }

  const ShardMapScan scan = claims.scan();
  ASSERT_EQ(scan.claims.size(), 3u);
  EXPECT_EQ(scan.claims.at(0).worker, "w0");
  EXPECT_EQ(scan.claims.at(1).worker, "w1");
  EXPECT_EQ(scan.claims.at(2).worker, "");
  EXPECT_EQ(scan.done, std::set<std::uint64_t>{1});
  ASSERT_EQ(scan.heartbeats.count("w0"), 1u);
  EXPECT_EQ(scan.heartbeats.at("w0").seq, 7u);
  ASSERT_EQ(scan.errors.size(), 1u);
  EXPECT_EQ(scan.errors[0].message, "boom");
}

TEST_F(FleetTest, ManifestFileRoundTripsAndMarksAFleetDirectory) {
  EXPECT_FALSE(is_fleet_directory(dir_));
  EXPECT_EQ(read_shardmap_manifest(dir_), std::nullopt);
  const ShardMapManifest manifest = fixture_manifest(4, 2);
  write_shardmap_manifest(dir_, manifest);
  EXPECT_TRUE(is_fleet_directory(dir_));
  const std::optional<ShardMapManifest> read = read_shardmap_manifest(dir_);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->name, manifest.name);
  EXPECT_EQ(read->grid_hash, manifest.grid_hash);
  EXPECT_EQ(read->threads_total, manifest.threads_total);
}

// ---------------------------------------------------------------------------
// Worker loop
// ---------------------------------------------------------------------------

TEST_F(FleetTest, LoneWorkerComputesEveryCellByteIdentically) {
  write_shardmap_manifest(dir_, fixture_manifest(1, 2));
  const Scenario scenario = fleet_scenario();
  const std::size_t computed = run_fleet_worker(
      scenario, ScenarioOptions{}, worker_options(dir_, "w0", 2));
  EXPECT_EQ(computed, 5u);
  EXPECT_EQ(to_text(fold_fleet_directory(dir_)), reference_text());
  // Every cell carries a done marker owned by the one worker.
  const ClaimDir claims(dir_);
  const ShardMapScan scan = claims.scan();
  EXPECT_EQ(scan.done.size(), 5u);
  EXPECT_EQ(scan.claims.size(), 5u);
}

TEST_F(FleetTest, WorkerRefusesAManifestForADifferentSweep) {
  ShardMapManifest manifest = fixture_manifest(1, 2);
  manifest.grid_hash ^= 1;  // a different grid expansion
  write_shardmap_manifest(dir_, manifest);
  const Scenario scenario = fleet_scenario();
  EXPECT_THROW((void)run_fleet_worker(scenario, ScenarioOptions{},
                                      worker_options(dir_, "w0", 2)),
               std::runtime_error);
  // The failure left a worker-fatal marker so a coordinator would abort
  // instead of respawning into the same mismatch.
  const ShardMapScan scan = ClaimDir(dir_).scan();
  ASSERT_EQ(scan.errors.size(), 1u);
  EXPECT_EQ(scan.errors[0].worker, "w0");
  EXPECT_FALSE(scan.errors[0].cell.has_value());
}

#ifndef _WIN32

/// Forks a child that runs `body` and _exits with its return value —
/// keeping gtest machinery (and its exit handlers) out of the child.
template <typename Body>
pid_t fork_child(Body body) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    int code = 2;
    try {
      code = body();
    } catch (const std::exception&) {
      code = 1;
    }
    ::_exit(code);
  }
  return pid;
}

int wait_exit(pid_t pid) {
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST_F(FleetTest, TwoForkedWorkersPartitionTheGridByteIdentically) {
  write_shardmap_manifest(dir_, fixture_manifest(2, 1));
  const Scenario scenario = fleet_scenario();
  const std::string dir = dir_;
  std::vector<pid_t> children;
  for (const char* name : {"w0", "w1"}) {
    children.push_back(fork_child([&scenario, &dir, name] {
      (void)run_fleet_worker(scenario, ScenarioOptions{},
                             worker_options(dir, name, 1));
      return 0;
    }));
  }
  for (const pid_t pid : children) {
    EXPECT_EQ(wait_exit(pid), 0);
  }
  EXPECT_EQ(to_text(fold_fleet_directory(dir_)), reference_text());
  // The claim protocol partitioned the grid: every cell ran exactly once.
  const ShardMapScan scan = ClaimDir(dir_).scan();
  EXPECT_EQ(scan.done.size(), 5u);
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

FleetOptions coordinator_options(const std::string& dir, std::ostream* log) {
  FleetOptions options;
  options.directory = dir;
  options.workers = 1;
  options.worker_threads = 2;
  options.deterministic = true;
  options.heartbeat_interval_ms = 25;
  options.claim_expiry_ms = 2'000;
  options.log = log;
  return options;
}

/// A spawn hook that forks the REAL worker loop in-process — the
/// coordinator cannot tell the difference from an exec'd binary.
std::int64_t spawn_real_worker(const Scenario& scenario,
                               const FleetSpawnRequest& request,
                               const std::string& dir) {
  return fork_child([&scenario, &request, &dir] {
    (void)run_fleet_worker(scenario, ScenarioOptions{},
                           worker_options(dir, request.worker, 2));
    return 0;
  });
}

TEST_F(FleetTest, SigkilledWorkerIsReassignedAndTheFoldStaysByteIdentical) {
  const Scenario scenario = fleet_scenario();
  std::ostringstream log;
  FleetOptions options = coordinator_options(dir_, &log);
  const std::string dir = dir_;
  int spawns = 0;
  options.spawn = [&](const FleetSpawnRequest& request) -> std::int64_t {
    if (++spawns > 1) {
      return spawn_real_worker(scenario, request, dir);
    }
    // First incarnation is the victim: it claims cell 0, writes a TORN
    // done-record temporary (exactly what a kill lands mid-publication),
    // then SIGKILLs itself before linking it into place. The claim must
    // be released and the cell recomputed by the replacement, and the
    // torn temporary must reach neither the scan nor the fold.
    return fork_child([&request, &dir] {
      const ClaimDir claims(dir);
      if (!claims.try_claim({0, request.worker, ::getpid()})) {
        return 4;
      }
      std::ofstream torn(claims.done_path(0) + ".tmp." +
                             std::to_string(::getpid()) + ".0",
                         std::ios::binary);
      torn << "{\"index\": 0, \"label\": \"cell=0\", \"coordi";
      torn.flush();
      (void)::raise(SIGKILL);
      return 5;  // unreachable
    });
  };

  const SweepJson document = run_fleet(scenario, ScenarioOptions{}, options);
  EXPECT_EQ(to_text(document), reference_text());
  EXPECT_EQ(spawns, 2);
  const std::string events = log.str();
  EXPECT_NE(events.find("worker w0 died"), std::string::npos) << events;
  EXPECT_NE(events.find("released 1 claim(s)"), std::string::npos) << events;
  EXPECT_NE(events.find("respawned replacement for w0"), std::string::npos)
      << events;
  // The victim's torn temporary is still there; the folded bytes above
  // prove it was ignored and cell 0 recomputed bit-identically.
  bool torn_left = false;
  for (const std::string& name : file_names(ClaimDir(dir_).directory())) {
    torn_left = torn_left || name.find(".done.tmp.") != std::string::npos;
  }
  EXPECT_TRUE(torn_left);
  // The coordinator created each incarnation's log before calling the
  // hook, so the name is taken although this hook never opened it.
  EXPECT_TRUE(fs::is_regular_file(dir_ + "/logs/w0.log"));
  EXPECT_TRUE(fs::is_regular_file(dir_ + "/logs/w1.log"));
  // Every record is a done marker; there is no second record path.
  EXPECT_FALSE(fs::exists(fs::path(dir_) / "streams"));
}

/// What run_fleet did in a forked child (run_fleet_bounded).
struct BoundedFleetRun {
  bool finished = false;  ///< run_fleet returned within the time limit
  std::string document;   ///< the folded document, when it finished
  std::string log;        ///< the coordinator's event lines
};

/// Runs run_fleet in a forked child, in a process group of its own, under
/// alarm(): a supervision path that never fires fails the test in bounded
/// time instead of hanging it. Whatever the child leaves behind (a
/// stopped worker, say) dies with its process group.
BoundedFleetRun run_fleet_bounded(const Scenario& scenario,
                                  FleetOptions options) {
  constexpr unsigned kTimeLimitSeconds = 60;
  const std::string document_path = options.directory + ".document";
  const std::string log_path = options.directory + ".log";
  const pid_t pid = ::fork();
  if (pid == 0) {
    (void)::setpgid(0, 0);
    (void)::alarm(kTimeLimitSeconds);
    int code = 1;
    {
      std::ofstream log(log_path);
      options.log = &log;
      try {
        const SweepJson document =
            run_fleet(scenario, ScenarioOptions{}, options);
        std::ofstream(document_path, std::ios::binary) << to_text(document);
        code = 0;
      } catch (const std::exception& error) {
        log << "run_fleet threw: " << error.what() << std::endl;
      }
    }
    ::_exit(code);
  }
  (void)::setpgid(pid, pid);  // whichever of parent and child runs first
  int status = 0;
  ::waitpid(pid, &status, 0);
  (void)::kill(-pid, SIGKILL);
  BoundedFleetRun run;
  run.finished = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  run.document = read_file(document_path);
  run.log = read_file(log_path);
  if (WIFSIGNALED(status) && WTERMSIG(status) == SIGALRM) {
    run.log += "(coordinator timed out after " +
               std::to_string(kTimeLimitSeconds) + " s)\n";
  }
  fs::remove(document_path);
  fs::remove(log_path);
  return run;
}

/// Coordinator options for the supervision tests: fast beats and a short
/// expiry, so a stale heartbeat or an orphaned claim is acted on within
/// a fraction of a second.
FleetOptions supervision_options(const std::string& dir) {
  FleetOptions options = coordinator_options(dir, nullptr);
  options.heartbeat_interval_ms = 25;
  options.claim_expiry_ms = 300;
  return options;
}

TEST_F(FleetTest, StoppedWorkerIsKilledOnAStaleHeartbeatAndReplaced) {
  const Scenario scenario = fleet_scenario();
  FleetOptions options = supervision_options(dir_);
  const std::string dir = dir_;
  int spawns = 0;
  options.spawn = [&](const FleetSpawnRequest& request) -> std::int64_t {
    if (++spawns > 1) {
      return spawn_real_worker(scenario, request, dir);
    }
    // The victim claims cell 0, beats once, and stops: alive to waitpid,
    // silent to the heartbeat watch. Only the staleness kill frees it.
    return fork_child([&request, &dir] {
      const ClaimDir claims(dir);
      if (!claims.try_claim({0, request.worker, ::getpid()})) {
        return 4;
      }
      claims.write_heartbeat({request.worker, ::getpid(), 1});
      (void)::raise(SIGSTOP);
      return 5;  // unreachable: SIGKILL is the only way on
    });
  };

  const BoundedFleetRun run = run_fleet_bounded(scenario, options);
  ASSERT_TRUE(run.finished) << run.log;
  EXPECT_EQ(run.document, reference_text());
  EXPECT_NE(run.log.find("worker w0 heartbeat stale; killing it"),
            std::string::npos)
      << run.log;
  EXPECT_NE(run.log.find("worker w0 died (signal " +
                         std::to_string(SIGKILL) + "); released 1 claim(s)"),
            std::string::npos)
      << run.log;
  EXPECT_NE(run.log.find("respawned replacement for w0"), std::string::npos)
      << run.log;
}

TEST_F(FleetTest, OrphanedClaimsExpireAndTheirCellsAreRecomputed) {
  // Two claims no live worker owns: one naming a worker of some earlier
  // coordinator, and an empty claim file (owned by no worker at all).
  {
    const ClaimDir claims(dir_);
    claims.create();
    ASSERT_TRUE(claims.try_claim({1, "ghost", 999'999}));
    const std::ofstream empty(claims.claim_path(3), std::ios::binary);
  }
  const Scenario scenario = fleet_scenario();
  FleetOptions options = supervision_options(dir_);
  const std::string dir = dir_;
  options.spawn = [&](const FleetSpawnRequest& request) -> std::int64_t {
    return spawn_real_worker(scenario, request, dir);
  };

  const BoundedFleetRun run = run_fleet_bounded(scenario, options);
  ASSERT_TRUE(run.finished) << run.log;
  EXPECT_EQ(run.document, reference_text());
  for (const char* cell : {"1", "3"}) {
    EXPECT_NE(run.log.find(std::string("expired stale claim for cell ") +
                           cell + "\n"),
              std::string::npos)
        << run.log;
  }
}

TEST_F(FleetTest, AnErrorMarkerAbortsTheFleetAndKillsTheWorkers) {
  const Scenario scenario = fleet_scenario();
  // A pre-existing cell error: some worker already proved the cell fails
  // deterministically, so the coordinator must abort, not respawn.
  {
    const ClaimDir claims(dir_);
    claims.create();
    ShardMapError error;
    error.cell = 2;
    error.worker = "w9";
    error.message = "cell runs threw";
    claims.mark_error(error);
  }
  std::ostringstream log;
  FleetOptions options = coordinator_options(dir_, &log);
  options.spawn = [](const FleetSpawnRequest&) -> std::int64_t {
    // A worker that never makes progress; the coordinator must kill it.
    return fork_child([] {
      for (;;) {
        ::pause();
      }
      return 0;
    });
  };
  try {
    (void)run_fleet(scenario, ScenarioOptions{}, options);
    FAIL() << "run_fleet accepted a fleet with an error marker";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("aborted"), std::string::npos)
        << error.what();
    EXPECT_NE(std::string(error.what()).find("cell 2"), std::string::npos)
        << error.what();
  }
}

TEST_F(FleetTest, ResumingACompletedFleetFoldsWithoutSpawningAnyWorker) {
  // Complete the sweep through the worker loop alone...
  write_shardmap_manifest(dir_, fixture_manifest(1, 2));
  const Scenario scenario = fleet_scenario();
  (void)run_fleet_worker(scenario, ScenarioOptions{},
                         worker_options(dir_, "w0", 2));
  // ...then a coordinator over the same directory has nothing to do.
  std::ostringstream log;
  FleetOptions options = coordinator_options(dir_, &log);
  int spawns = 0;
  options.spawn = [&spawns](const FleetSpawnRequest&) -> std::int64_t {
    ++spawns;
    return -1;
  };
  const SweepJson document = run_fleet(scenario, ScenarioOptions{}, options);
  EXPECT_EQ(spawns, 0);
  EXPECT_EQ(to_text(document), reference_text());
  EXPECT_NE(log.str().find("resuming existing fleet directory"),
            std::string::npos);
}

TEST_F(FleetTest, AResumeSkipsAStrayWorkerLikeFileName) {
  write_shardmap_manifest(dir_, fixture_manifest(1, 2));
  const Scenario scenario = fleet_scenario();
  (void)run_fleet_worker(scenario, ScenarioOptions{},
                         worker_options(dir_, "w0", 2));
  // A w<digits> name whose number fits no integer, where worker names
  // are recorded now (logs) and where older layouts recorded them.
  const fs::path root(dir_);
  for (const fs::path& stray :
       {root / "logs" / "w99999999999999999999999.log",
        root / "streams" / "w99999999999999999999999.jsonl"}) {
    fs::create_directories(stray.parent_path());
    std::ofstream{stray};
  }
  std::ostringstream log;
  FleetOptions options = coordinator_options(dir_, &log);
  int spawns = 0;
  options.spawn = [&spawns](const FleetSpawnRequest&) -> std::int64_t {
    ++spawns;
    return -1;
  };
  const SweepJson document = run_fleet(scenario, ScenarioOptions{}, options);
  EXPECT_EQ(spawns, 0);
  EXPECT_EQ(to_text(document), reference_text());
}

TEST_F(FleetTest, TheFoldNamesACellWithoutADoneRecord) {
  write_shardmap_manifest(dir_, fixture_manifest(1, 2));
  const Scenario scenario = fleet_scenario();
  (void)run_fleet_worker(scenario, ScenarioOptions{},
                         worker_options(dir_, "w0", 2));
  fs::remove(ClaimDir(dir_).done_path(3));
  try {
    (void)fold_fleet_directory(dir_);
    FAIL() << "a fleet directory missing a done record folded";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("cell 3"), std::string::npos)
        << error.what();
  }
}

TEST_F(FleetTest, TheFoldRejectsAForeignOrGarbageDoneRecord) {
  write_shardmap_manifest(dir_, fixture_manifest(1, 2));
  const Scenario scenario = fleet_scenario();
  (void)run_fleet_worker(scenario, ScenarioOptions{},
                         worker_options(dir_, "w0", 2));
  const ClaimDir claims(dir_);
  const std::string cell2 = read_file(claims.done_path(2));
  const auto expect_fold_names_cell_2 = [&](const char* what) {
    try {
      (void)fold_fleet_directory(dir_);
      FAIL() << "folded " << what;
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("cell 2"), std::string::npos)
          << what << ": " << error.what();
    }
  };
  // Cell 1's (valid) record where cell 2's belongs.
  std::ofstream(claims.done_path(2), std::ios::binary | std::ios::trunc)
      << read_file(claims.done_path(1));
  expect_fold_names_cell_2("a record naming another cell");
  // Not a record at all.
  std::ofstream(claims.done_path(2), std::ios::binary | std::ios::trunc)
      << "garbage\n";
  expect_fold_names_cell_2("a garbage record");
  // The real record folds again.
  std::ofstream(claims.done_path(2), std::ios::binary | std::ios::trunc)
      << cell2;
  EXPECT_EQ(to_text(fold_fleet_directory(dir_)), reference_text());
}

TEST_F(FleetTest, RefusesToResumeADirectoryHoldingADifferentSweep) {
  ShardMapManifest manifest = fixture_manifest(1, 2);
  manifest.base_seed = 78;  // same scenario, different seed
  write_shardmap_manifest(dir_, manifest);
  const Scenario scenario = fleet_scenario();
  FleetOptions options = coordinator_options(dir_, nullptr);
  int spawns = 0;
  options.spawn = [&spawns](const FleetSpawnRequest&) -> std::int64_t {
    ++spawns;
    return -1;
  };
  EXPECT_THROW((void)run_fleet(scenario, ScenarioOptions{}, options),
               std::runtime_error);
  EXPECT_EQ(spawns, 0);
}

TEST_F(FleetTest, RefusesToResumeDoneRecordsOfADifferentExperiment) {
  // The fixture's labels omit the radio, so its grid hash — and the
  // manifest — are the same on every radio. Done records published on
  // the ideal radio must not be folded into a casino-lab resume.
  write_shardmap_manifest(dir_, fixture_manifest(1, 2));
  const ClaimDir claims(dir_);
  claims.create();
  const SweepJson ideal = reference_document(RadioKind::kIdeal);
  for (const std::uint64_t cell : {1u, 3u}) {
    std::ostringstream record;
    write_cell_stream_record(record, ideal.cells[cell]);
    ASSERT_TRUE(claims.mark_done(cell, record.str(), true));
  }
  const auto snapshot = [this] {
    std::vector<std::pair<std::string, std::string>> files;
    for (const fs::directory_entry& entry :
         fs::recursive_directory_iterator(dir_)) {
      files.emplace_back(entry.path().string(),
                         entry.is_regular_file()
                             ? read_file(entry.path().string())
                             : std::string("<dir>"));
    }
    std::sort(files.begin(), files.end());
    return files;
  };
  const auto before = snapshot();

  FleetOptions options = coordinator_options(dir_, nullptr);
  options.spawn = [](const FleetSpawnRequest&) -> std::int64_t {
    throw std::logic_error("spawned a worker for a refused resume");
  };
  try {
    (void)run_fleet(fleet_scenario(), ScenarioOptions{}, options);
    FAIL() << "resumed done records of another radio";
  } catch (const std::runtime_error& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("cell 1"), std::string::npos) << message;
    EXPECT_NE(message.find("config.radio 'ideal'"), std::string::npos)
        << message;
    EXPECT_NE(message.find("'casino-lab'"), std::string::npos) << message;
  }
  EXPECT_EQ(snapshot(), before);
}

#endif  // !_WIN32

TEST_F(FleetTest, RunFleetValidatesItsOptions) {
  const Scenario scenario = fleet_scenario();
  FleetOptions options;
  options.directory = "";
  EXPECT_THROW((void)run_fleet(scenario, ScenarioOptions{}, options),
               std::invalid_argument);
  options.directory = dir_;
  options.workers = 0;
  EXPECT_THROW((void)run_fleet(scenario, ScenarioOptions{}, options),
               std::invalid_argument);
  options.workers = 1;
  options.worker_threads = 0;
  EXPECT_THROW((void)run_fleet(scenario, ScenarioOptions{}, options),
               std::invalid_argument);
  // A heartbeat interval the claim expiry does not cover several times
  // over would get healthy workers killed as stale. Refused before any
  // worker is spawned (the hook must never run).
  options.worker_threads = 1;
  options.heartbeat_interval_ms = 15'000;
  options.claim_expiry_ms = 10'000;
  options.spawn = [](const FleetSpawnRequest&) -> std::int64_t {
    throw std::logic_error("spawned despite invalid intervals");
  };
  try {
    (void)run_fleet(scenario, ScenarioOptions{}, options);
    FAIL() << "run_fleet accepted an expiry below the heartbeat interval";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("15000"), std::string::npos)
        << error.what();
    EXPECT_NE(std::string(error.what()).find("10000"), std::string::npos)
        << error.what();
  }

  FleetWorkerOptions worker;
  worker.directory = dir_;
  worker.worker = "not a valid name";
  EXPECT_THROW(
      (void)run_fleet_worker(scenario, ScenarioOptions{}, worker),
      std::invalid_argument);
}

}  // namespace
}  // namespace slpdas::core
