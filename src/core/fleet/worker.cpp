// The fleet worker loop: claim a cell, run it, publish its
// "slpdas.cachecell.v1" entry as the cell's done marker; repeat until every
// cell in the grid is done. Work distribution is nothing but the claim
// directory — workers never talk to the coordinator, so the same loop
// runs under the local launcher today and an ssh/slurm launcher later.
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "../atomic_file.hpp"
#include "../cell_record.hpp"
#include "slpdas/core/cell_cache.hpp"
#include "slpdas/core/fleet.hpp"
#include "slpdas/core/thread_pool.hpp"

namespace slpdas::core {
namespace {

/// How long to sleep when every remaining cell is claimed by someone
/// else (the only idle state — an unclaimed cell is taken immediately).
constexpr int kIdleWaitMs = 20;

[[nodiscard]] bool valid_worker_name(const std::string& name) {
  if (name.empty()) {
    return false;
  }
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) {
      return false;
    }
  }
  return true;
}

/// Keeps the worker's liveness counter advancing even while a long cell
/// runs: a plain side thread that bumps seq every interval. Write
/// failures are swallowed (a beat is advisory; the worker's real output
/// goes through the done markers) — but never allowed to escape
/// a detached-context thread.
class HeartbeatThread {
 public:
  HeartbeatThread(const ClaimDir& claims, std::string worker,
                  std::int64_t pid, int interval_ms)
      : thread_([this, &claims, worker = std::move(worker), pid,
                 interval_ms] {
          ShardMapHeartbeat heartbeat;
          heartbeat.worker = worker;
          heartbeat.pid = pid;
          while (!stop_.load(std::memory_order_relaxed)) {
            ++heartbeat.seq;
            try {
              claims.write_heartbeat(heartbeat);
            } catch (const std::exception&) {
              // Advisory only — retry next beat.
            }
            // Sleep in small steps so shutdown never waits a full
            // interval.
            constexpr int kStepMs = 10;
            for (int waited = 0;
                 waited < interval_ms && !stop_.load(std::memory_order_relaxed);
                 waited += kStepMs) {
              std::this_thread::sleep_for(std::chrono::milliseconds(kStepMs));
            }
          }
        }) {}

  HeartbeatThread(const HeartbeatThread&) = delete;
  HeartbeatThread& operator=(const HeartbeatThread&) = delete;

  ~HeartbeatThread() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Reads the manifest, waiting briefly for a coordinator that is still
/// writing it (a remote launcher may start workers concurrently).
[[nodiscard]] ShardMapManifest await_manifest(const std::string& directory) {
  constexpr int kAttempts = 20;
  constexpr int kDelayMs = 100;
  for (int attempt = 0;; ++attempt) {
    if (std::optional<ShardMapManifest> manifest =
            read_shardmap_manifest(directory)) {
      return *manifest;
    }
    if (attempt + 1 >= kAttempts) {
      throw std::runtime_error("fleet worker: no shardmap.json in " +
                               directory);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(kDelayMs));
  }
}

std::size_t worker_loop(const Scenario& scenario,
                        const ScenarioOptions& options,
                        const FleetWorkerOptions& worker_options,
                        const ClaimDir& claims) {
  const std::vector<SweepCell> cells = scenario.cells(options);
  if (cells.empty()) {
    throw std::runtime_error("fleet worker: scenario expands to no cells");
  }
  const ShardMapManifest manifest =
      await_manifest(worker_options.directory);
  detail::SweepIdentity expected;
  expected.name = scenario.name;
  expected.base_seed = scenario.resolved_seed(options);
  expected.grid_hash = hash_sweep_grid(cells);
  expected.cells_total = cells.size();
  // The timing mode is the manifest's to set, not this process's.
  expected.deterministic = manifest.deterministic;
  const std::string mismatch =
      detail::identity_mismatch(detail::identity_of(manifest), expected);
  if (!mismatch.empty()) {
    throw std::runtime_error(
        "fleet worker: manifest " + mismatch +
        " (manifest vs this process's grid expansion) — mixed binaries or "
        "mismatched scenario options");
  }

  const std::int64_t pid = detail::current_pid();
  const HeartbeatThread heartbeat(claims, worker_options.worker, pid,
                                  worker_options.heartbeat_interval_ms);
  ThreadPool pool(manifest.worker_threads);
  std::size_t computed = 0;
  for (;;) {
    bool all_done = true;
    bool ran_any = false;
    for (std::size_t index = 0; index < cells.size(); ++index) {
      if (claims.is_done(index)) {
        continue;
      }
      all_done = false;
      ShardMapClaim claim;
      claim.cell = index;
      claim.worker = worker_options.worker;
      claim.pid = pid;
      if (!claims.try_claim(claim)) {
        continue;  // held by another worker (or awaiting expiry)
      }
      ran_any = true;
      if (worker_options.log != nullptr) {
        (*worker_options.log)
            << "worker " << worker_options.worker << ": claimed cell "
            << index << " (" << cells[index].label << ")" << std::endl;
      }
      SweepOptions sweep_options;
      sweep_options.threads = manifest.worker_threads;
      sweep_options.base_seed = manifest.base_seed;
      sweep_options.deterministic_timing = manifest.deterministic;
      sweep_options.cache = worker_options.cache;
      sweep_options.progress = worker_options.log;
      // A claim is a one-cell shard: of the full grid (whose seeds it
      // derives from) this sweep runs cell `index` alone.
      sweep_options.shard_index = static_cast<int>(index);
      sweep_options.shard_count = static_cast<int>(cells.size());
      SweepResult result;
      try {
        result = run_sweep(cells, sweep_options, pool);
      } catch (const std::exception& error) {
        // A cell whose runs throw fails DETERMINISTICALLY — reassignment
        // would reproduce it, so tell the coordinator to abort the fleet.
        ShardMapError marker;
        marker.cell = index;
        marker.worker = worker_options.worker;
        marker.message = error.what();
        claims.mark_error(marker);
        throw;
      }
      // The done marker is the cell's cache entry — the bytes
      // CellCache::store writes for it, cache hits included — so its
      // readers check the cell's whole identity key.
      const SweepJsonCell record =
          to_sweep_json(result, manifest.name).cells.front();
      claims.mark_done(
          index,
          detail::compose_cache_entry(
              make_cell_cache_key(cells[index].config, record.cell_seed,
                                  manifest.deterministic),
              record),
          manifest.deterministic);
      ++computed;
    }
    if (all_done) {
      break;
    }
    if (!ran_any) {
      // Every remaining cell is claimed by someone else: wait for either
      // their done markers or the coordinator expiring a dead owner.
      std::this_thread::sleep_for(std::chrono::milliseconds(kIdleWaitMs));
    }
  }
  if (worker_options.log != nullptr) {
    (*worker_options.log) << "worker " << worker_options.worker
                          << ": all cells done (computed " << computed
                          << " here)" << std::endl;
  }
  return computed;
}

}  // namespace

std::size_t run_fleet_worker(const Scenario& scenario,
                             const ScenarioOptions& options,
                             const FleetWorkerOptions& worker_options) {
  if (worker_options.directory.empty()) {
    throw std::invalid_argument("fleet worker: empty fleet directory");
  }
  if (!valid_worker_name(worker_options.worker)) {
    throw std::invalid_argument(
        "fleet worker: worker name must be non-empty [A-Za-z0-9._-]");
  }
  if (worker_options.heartbeat_interval_ms < 1) {
    throw std::invalid_argument(
        "fleet worker: heartbeat interval must be >= 1 ms");
  }
  const ClaimDir claims(worker_options.directory);
  claims.create();
  try {
    return worker_loop(scenario, options, worker_options, claims);
  } catch (const std::exception& error) {
    // Leave a worker-fatal marker so the coordinator aborts promptly
    // instead of respawning into the same failure. Best-effort: the
    // marker may be unwritable for the same reason the worker failed.
    try {
      ShardMapError marker;
      marker.worker = worker_options.worker;
      marker.message = error.what();
      claims.mark_error(marker);
    } catch (const std::exception&) {
    }
    throw;
  }
}

}  // namespace slpdas::core
