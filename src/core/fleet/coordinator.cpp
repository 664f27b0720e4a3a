// The fleet coordinator: writes the manifest, launches N local worker
// processes (or whatever the spawn hook launches), supervises them via
// child exits + heartbeat staleness, releases dead workers' claims so the
// survivors steal their cells, respawns replacements under fresh names,
// and folds every cell's done marker into the one unsharded document.
//
// The coordinator itself never computes a cell and never holds a thread
// pool: it is a single-threaded poll loop, so fork(2) in the local
// launcher happens from a single-threaded process — the only portable
// fork discipline.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "../atomic_file.hpp"
#include "../cell_record.hpp"
#include "process.hpp"
#include "slpdas/core/cell_cache.hpp"
#include "slpdas/core/fleet.hpp"

namespace slpdas::core {
namespace {

namespace fs = std::filesystem;
// Supervision timing is inherently wall-clock: heartbeat staleness and
// claim expiry measure REAL elapsed time, and none of it can reach the
// result documents (those are folded purely from the done markers).
// slpdas-lint: allow(wall-clock): fleet supervision timing, never in results
using Clock = std::chrono::steady_clock;

/// The supervision loop's cadence: one claim-directory scan per poll.
constexpr int kPollIntervalMs = 25;

struct LiveWorker {
  std::string name;
  std::int64_t pid = 0;
  std::uint64_t last_seq = 0;        ///< newest heartbeat seq seen
  Clock::time_point last_progress;   ///< when last_seq last advanced
};

[[nodiscard]] int elapsed_ms(Clock::time_point since, Clock::time_point now) {
  return static_cast<int>(
      std::chrono::duration_cast<std::chrono::milliseconds>(now - since)
          .count());
}

void log_line(std::ostream* log, const std::string& line) {
  if (log != nullptr) {
    (*log) << line << std::endl;
  }
}

/// Next fresh worker id: one past the largest w<N> log file already in
/// the directory, so a resumed coordinator never reuses a dead
/// incarnation's name (and with it its heartbeat file). Names that are
/// not w<N>, or whose N does not fit, are someone else's files: skipped.
[[nodiscard]] std::size_t next_worker_id(const std::string& logs_dir) {
  std::size_t next = 0;
  std::error_code ec;
  fs::directory_iterator it(logs_dir, ec);
  if (ec) {
    return next;
  }
  for (const fs::directory_entry& entry : it) {
    const std::string stem = entry.path().stem().string();
    if (stem.size() < 2 || stem[0] != 'w') {
      continue;
    }
    std::size_t id = 0;
    const char* last = stem.data() + stem.size();
    const auto [end, parse_error] = std::from_chars(stem.data() + 1, last, id);
    if (parse_error != std::errc() || end != last) {
      continue;
    }
    next = std::max(next, id + 1);
  }
  return next;
}

/// Empty when the keys are equal, otherwise their first differing
/// material line, e.g. "radio=ideal on disk vs radio=casino-lab in this
/// run".
[[nodiscard]] std::string key_mismatch(const CellCacheKey& have,
                                       const CellCacheKey& want) {
  std::istringstream a(have.material());
  std::istringstream b(want.material());
  for (std::string x, y; std::getline(a, x) && std::getline(b, y);) {
    if (x != y) {
      return x + " on disk vs " + y + " in this run";
    }
  }
  return {};
}

[[nodiscard]] std::string describe_error(const ShardMapError& error) {
  std::ostringstream out;
  if (error.cell) {
    out << "cell " << *error.cell << " failed on worker " << error.worker;
  } else {
    out << "worker " << error.worker << " failed";
  }
  out << ": " << error.message;
  return std::move(out).str();
}

}  // namespace

SweepJson run_fleet(const Scenario& scenario, const ScenarioOptions& options,
                    const FleetOptions& fleet_options) {
  if (fleet_options.directory.empty()) {
    throw std::invalid_argument("fleet: empty fleet directory");
  }
  if (fleet_options.workers < 1) {
    throw std::invalid_argument("fleet: workers must be >= 1");
  }
  if (fleet_options.worker_threads < 1) {
    throw std::invalid_argument("fleet: worker threads must be >= 1");
  }
  if (fleet_options.heartbeat_interval_ms < 1 ||
      fleet_options.claim_expiry_ms < 1) {
    throw std::invalid_argument("fleet: intervals must be >= 1 ms");
  }
  // A healthy worker beats once per interval; an expiry within a few
  // beats would kill it between two of them.
  if (fleet_options.claim_expiry_ms <
      4 * static_cast<std::int64_t>(fleet_options.heartbeat_interval_ms)) {
    throw std::invalid_argument(
        "fleet: claim expiry " + std::to_string(fleet_options.claim_expiry_ms) +
        " ms must be at least 4x the heartbeat interval " +
        std::to_string(fleet_options.heartbeat_interval_ms) + " ms");
  }
  const std::vector<SweepCell> cells = scenario.cells(options);
  if (cells.empty()) {
    throw std::runtime_error("fleet: scenario expands to no cells");
  }

  ShardMapManifest manifest;
  manifest.name = scenario.name;
  manifest.base_seed = scenario.resolved_seed(options);
  manifest.grid_hash = hash_sweep_grid(cells);
  manifest.cells_total = cells.size();
  manifest.deterministic = fleet_options.deterministic;
  manifest.workers = fleet_options.workers;
  manifest.worker_threads = fleet_options.worker_threads;
  manifest.threads_total =
      fleet_options.workers * fleet_options.worker_threads;

  const std::string& dir = fleet_options.directory;
  const ClaimDir claims(dir);
  claims.create();

  // Resume or initialise: an existing manifest must describe this very
  // sweep and fleet shape. Workers size their pools from the kept
  // manifest and the fold takes its `threads` field from it, so a resume
  // under another shape would run one that neither describes.
  if (const std::optional<ShardMapManifest> existing =
          read_shardmap_manifest(dir)) {
    std::string mismatch = detail::identity_mismatch(
        detail::identity_of(*existing), detail::identity_of(manifest));
    if (mismatch.empty() &&
        (existing->workers != manifest.workers ||
         existing->worker_threads != manifest.worker_threads)) {
      const auto shape = [](const ShardMapManifest& m) {
        return std::to_string(m.workers) + " worker(s) x " +
               std::to_string(m.worker_threads) + " thread(s)";
      };
      mismatch = shape(*existing) + " on disk vs " + shape(manifest) +
                 " requested";
    }
    if (!mismatch.empty()) {
      throw std::runtime_error("fleet: " + dir +
                               " already holds a different sweep or fleet "
                               "shape (" + mismatch +
                               "); use a fresh --fleet-dir or matching "
                               "options");
    }
    // The grid hash covers labels and run counts, not the cells' configs:
    // every kept done marker must carry this run's cache key for its
    // cell, or the fold would mix two experiments into one document.
    for (const std::uint64_t index : claims.scan().done) {
      if (index >= cells.size()) {
        break;  // not a cell of this grid; the fold never reads it
      }
      const SweepCell& cell = cells[index];
      std::string mismatch;
      try {
        mismatch = key_mismatch(
            detail::read_cache_entry(
                detail::read_file(claims.done_path(index)))
                .key,
            make_cell_cache_key(
                cell.config,
                detail::cell_seed_of(cell, manifest.base_seed),
                manifest.deterministic));
      } catch (const std::exception& error) {
        mismatch = error.what();
      }
      if (!mismatch.empty()) {
        throw std::runtime_error(
            "fleet: " + dir + " holds a done marker this run cannot keep: "
            "cell " + std::to_string(index) + " ('" + cell.label + "'): " +
            mismatch + "; use a fresh --fleet-dir or matching options");
      }
    }
    manifest = *existing;
    log_line(fleet_options.log,
             "fleet: resuming existing fleet directory " + dir);
  } else {
    write_shardmap_manifest(dir, manifest);
  }
  const std::string logs_dir = dir + "/logs";
  fs::create_directories(logs_dir);

  std::string program;
  if (!fleet_options.spawn) {
    program = fleet_detail::current_executable();
    if (program.empty()) {
      throw std::runtime_error("fleet: cannot resolve this executable");
    }
  }

  const auto build_request = [&](const std::string& worker) {
    FleetSpawnRequest request;
    request.worker = worker;
    request.log_path = logs_dir + "/" + worker + ".log";
    std::vector<std::string>& argv = request.argv;
    argv = {program,         "fleet-worker",  scenario.name,
            "--fleet-dir",   dir,             "--worker-name",
            worker,          "--heartbeat-ms",
            std::to_string(fleet_options.heartbeat_interval_ms)};
    if (options.runs > 0) {
      argv.emplace_back("--runs");
      argv.emplace_back(std::to_string(options.runs));
    }
    if (options.base_seed != 0) {
      argv.emplace_back("--seed");
      argv.emplace_back(std::to_string(options.base_seed));
    }
    if (options.search_distance != 0) {
      argv.emplace_back("--sd");
      argv.emplace_back(std::to_string(options.search_distance));
    }
    if (options.smoke) {
      argv.emplace_back("--smoke");
    }
    for (const auto& [key, value] : options.sets) {
      argv.emplace_back("--set");
      argv.emplace_back(key + "=" + value);
    }
    if (!fleet_options.cache_dir.empty()) {
      argv.emplace_back("--cache");
      argv.emplace_back(fleet_options.cache_dir);
      if (fleet_options.cache_readonly) {
        argv.emplace_back("--cache-readonly");
      }
    }
    return request;
  };

  const auto spawn_fn =
      fleet_options.spawn
          ? fleet_options.spawn
          : std::function<std::int64_t(const FleetSpawnRequest&)>(
                [](const FleetSpawnRequest& request) {
                  return fleet_detail::spawn_process(request.argv,
                                                     request.log_path);
                });

  // A backstop against respawn loops when workers die before reaching any
  // cell (so no error marker ever appears).
  int spawn_budget = fleet_options.workers * 8;
  std::size_t worker_id = next_worker_id(logs_dir);
  std::vector<LiveWorker> live;

  const auto kill_everyone = [&] {
    for (const LiveWorker& worker : live) {
      fleet_detail::kill_process(worker.pid);
    }
    for (const LiveWorker& worker : live) {
      (void)fleet_detail::wait_process(worker.pid, 2'000);
    }
    live.clear();
  };

  const auto spawn_one = [&] {
    if (spawn_budget <= 0) {
      kill_everyone();
      throw std::runtime_error(
          "fleet: spawn budget exhausted — workers keep dying before "
          "reaching any cell; see " + logs_dir);
    }
    --spawn_budget;
    const std::string name = "w" + std::to_string(worker_id++);
    const FleetSpawnRequest request = build_request(name);
    // The log file is the record that `name` is taken (next_worker_id),
    // whether or not the hook ever writes to it.
    if (!std::ofstream(request.log_path, std::ios::app)) {
      throw std::runtime_error("fleet: cannot create " + request.log_path);
    }
    LiveWorker worker;
    worker.name = name;
    worker.pid = spawn_fn(request);
    worker.last_progress = Clock::now();
    log_line(fleet_options.log, "fleet: spawned worker " + name + " (pid " +
                                    std::to_string(worker.pid) + ")");
    live.push_back(std::move(worker));
  };

  /// First-seen times for claims owned by nobody alive (crashed previous
  /// coordinator, or a claim file owned by no worker); released once older
  /// than claim_expiry_ms.
  std::map<std::uint64_t, Clock::time_point> orphan_first_seen;

  try {
    {
      const ShardMapScan initial = claims.scan();
      const std::size_t undone = cells.size() - initial.done.size();
      const std::size_t to_spawn = std::min<std::size_t>(
          static_cast<std::size_t>(fleet_options.workers), undone);
      for (std::size_t i = 0; i < to_spawn; ++i) {
        spawn_one();
      }
    }

    for (;;) {
      const ShardMapScan scan = claims.scan();
      if (!scan.errors.empty()) {
        kill_everyone();
        throw std::runtime_error("fleet: aborted: " +
                                 describe_error(scan.errors.front()));
      }
      if (scan.done.size() >= cells.size()) {
        break;
      }
      const Clock::time_point now = Clock::now();

      // Reap exits. A worker only exits 0 once EVERY cell is done, so any
      // exit seen here is a death: release its claims and replace it.
      for (std::size_t i = 0; i < live.size();) {
        const std::optional<fleet_detail::ProcessExit> exit =
            fleet_detail::poll_process(live[i].pid);
        if (!exit) {
          ++i;
          continue;
        }
        const LiveWorker dead = live[i];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        // Re-scan AFTER the death: a claim written between the loop's
        // scan and the death would otherwise sit out the full expiry.
        // The worker is dead, so this scan sees its final claim set.
        const ShardMapScan after_death = claims.scan();
        std::size_t released = 0;
        for (const auto& [cell, claim] : after_death.claims) {
          if (claim.worker == dead.name && after_death.done.count(cell) == 0) {
            claims.release_claim(cell);
            ++released;
          }
        }
        log_line(fleet_options.log,
                 "fleet: worker " + dead.name + " died (" +
                     exit->description + "); released " +
                     std::to_string(released) + " claim(s)");
        spawn_one();
        log_line(fleet_options.log, "fleet: respawned replacement for " +
                                        dead.name);
      }

      // Heartbeat staleness: a live-but-silent worker (hung, or launched
      // through a hook whose process we cannot reap) is killed here; the
      // next poll reaps it through the path above.
      for (LiveWorker& worker : live) {
        const auto beat = scan.heartbeats.find(worker.name);
        if (beat != scan.heartbeats.end() &&
            beat->second.seq > worker.last_seq) {
          worker.last_seq = beat->second.seq;
          worker.last_progress = now;
        } else if (elapsed_ms(worker.last_progress, now) >
                   fleet_options.claim_expiry_ms) {
          log_line(fleet_options.log,
                   "fleet: worker " + worker.name +
                       " heartbeat stale; killing it");
          fleet_detail::kill_process(worker.pid);
        }
      }

      // Orphaned claims: owner is no live worker of ours (previous
      // coordinator run, or a claim file owned by no worker). Give the
      // unknown owner claim_expiry_ms of benefit of the doubt, then steal
      // the cell.
      std::set<std::uint64_t> orphans;
      for (const auto& [cell, claim] : scan.claims) {
        if (scan.done.count(cell) != 0) {
          continue;
        }
        const bool owned_live =
            std::any_of(live.begin(), live.end(),
                        [&claim = claim](const LiveWorker& worker) {
                          return worker.name == claim.worker;
                        });
        if (!owned_live) {
          orphans.insert(cell);
        }
      }
      for (auto it = orphan_first_seen.begin();
           it != orphan_first_seen.end();) {
        it = orphans.count(it->first) == 0 ? orphan_first_seen.erase(it)
                                           : std::next(it);
      }
      for (const std::uint64_t cell : orphans) {
        const auto [it, inserted] = orphan_first_seen.emplace(cell, now);
        if (!inserted &&
            elapsed_ms(it->second, now) > fleet_options.claim_expiry_ms) {
          claims.release_claim(cell);
          orphan_first_seen.erase(it);
          log_line(fleet_options.log,
                   "fleet: expired stale claim for cell " +
                       std::to_string(cell));
        }
      }

      std::this_thread::sleep_for(std::chrono::milliseconds(kPollIntervalMs));
    }

    // All cells done. Workers observe the same and exit 0 on their own;
    // give them a moment, then stop waiting (every record is already
    // published — a done marker IS the cell's entry).
    for (const LiveWorker& worker : live) {
      if (!fleet_detail::wait_process(worker.pid, 5'000)) {
        fleet_detail::kill_process(worker.pid);
        (void)fleet_detail::wait_process(worker.pid, 2'000);
      }
    }
    live.clear();
    // slpdas-lint: allow(bare-catch): kill children on ANY failure, rethrow
  } catch (...) {
    kill_everyone();
    throw;
  }

  log_line(fleet_options.log,
           "fleet: all " + std::to_string(cells.size()) +
               " cells done; folding their done markers");
  return fold_fleet_directory(dir);
}

}  // namespace slpdas::core
