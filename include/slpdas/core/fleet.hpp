// Distributed sweep fabric: a multi-process coordinator with
// cell-granular work stealing ("slpdas.shardmap.v3").
//
// A fleet run executes ONE scenario sweep across N worker processes that
// share nothing but a directory. The coordinator writes a manifest
// identifying the sweep, spawns the workers, and watches; each worker
// re-expands the grid from the scenario registry, then pulls the next
// unclaimed cell from the claim directory, runs it, and publishes the
// cell's "slpdas.cachecell.v1" cache entry as its done marker. Cells —
// not static round-robin shards — are the unit of distribution, so a
// straggler cell (a big unit-disk topology, say) occupies one worker
// while the others drain the rest of the grid.
//
// Claim protocol (the part a future ssh/slurm launcher reuses as-is):
//   <dir>/shardmap.json            manifest (tmp+rename, like CellCache)
//   <dir>/claims/cell-N.claim      who owns the cell (tmp+link = ownership)
//   <dir>/claims/cell-N.done       the cell's cache entry (tmp+link, kept)
//   <dir>/claims/cell-N.error      a cell's runs threw; coordinator aborts
//   <dir>/claims/worker-W.heartbeat  liveness counter, rewritten in place
//   <dir>/claims/worker-W.error    worker-fatal failure (bad manifest, IO)
//   <dir>/logs/W.log               worker stdout+stderr (local launcher)
//
// Claims and done markers are both written whole to a temporary and then
// link(2)ed into place — not renamed, since a rename silently REPLACES
// on POSIX: exactly one process wins the link, and a published file is
// never replaced and never seen partial. So a claim always names its
// owner, and the done marker IS the cell's entry: "done" always means
// "recorded". A worker that dies mid-cell leaves a claim without a done
// marker (and at most a torn temporary, which nothing reads); the
// coordinator reaps the death — or, for workers it cannot reap, notices
// the heartbeat go stale — releases the orphaned claims, and spawns a
// replacement. Because every worker re-derives seeds from the full grid,
// reassignment is free: the replacement recomputes the cell
// bit-identically.
//
// The fold obeys the "parallel compute, single-threaded stable merge"
// determinism rule: the done marker of every cell is read back (through
// the cache's entry reader) in index order and written through the one
// sweep-JSON writer — so a fleet document is byte-identical to an
// unsharded single-process run of the same sweep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "slpdas/core/scenario.hpp"
#include "slpdas/core/sweep.hpp"

namespace slpdas::core {

class CellCache;  // cell_cache.hpp

// ---------------------------------------------------------------------------
// Shardmap records ("slpdas.shardmap.v3")
// ---------------------------------------------------------------------------

/// Schema tag written into every shardmap record; the format_* writers
/// emit it and the parse_* readers verify it.
inline constexpr std::string_view kShardMapSchema = "slpdas.shardmap.v3";

/// The sweep identity every participant must agree on, written once by
/// the coordinator as <dir>/shardmap.json before any worker starts. A
/// worker refuses to pull cells when its own grid expansion disagrees —
/// mixed binaries or options would silently corrupt the fold.
struct ShardMapManifest {
  std::string name;  ///< scenario / document name
  std::uint64_t base_seed = 0;
  std::uint64_t grid_hash = 0;    ///< hash_sweep_grid of the FULL grid
  std::uint64_t cells_total = 0;  ///< full grid size
  bool deterministic = false;     ///< workers must zero their wall clocks
  int workers = 0;                ///< fleet size the coordinator launched
  int worker_threads = 0;         ///< pool size of EACH worker
  /// workers x worker_threads: the `threads` value of the folded document,
  /// so `fleet --workers 4` folds byte-identically to `run --threads 4`.
  int threads_total = 0;
};

/// One worker's exclusive ownership of one cell (cell-N.claim), published
/// whole by ClaimDir::try_claim. A claim file whose content does not parse
/// (not written by try_claim) is a claim owned by no worker: the
/// coordinator expires it like any other orphan.
struct ShardMapClaim {
  std::uint64_t cell = 0;
  std::string worker;
  std::int64_t pid = 0;
};

/// Liveness counter (worker-W.heartbeat), rewritten via tmp+rename every
/// interval. The coordinator tracks seq changes, not timestamps, so only
/// IT needs a clock — workers stay wall-clock-free except for the beat
/// cadence itself.
struct ShardMapHeartbeat {
  std::string worker;
  std::int64_t pid = 0;
  std::uint64_t seq = 0;
};

/// Failure marker. With a cell (cell-N.error) the cell's runs threw — a
/// deterministic failure every reassignment would reproduce, so the
/// coordinator aborts the whole fleet instead of burning workers on it.
/// Without one (worker-W.error) the worker itself failed to start, to
/// publish a done marker, or hit a conflicting one.
struct ShardMapError {
  std::optional<std::uint64_t> cell;
  std::string worker;
  std::string message;
};

/// Single-line serialisations (no trailing newline) of the shardmap
/// records, through the same escaping/number discipline as every other
/// document this library writes. (A done marker holds a
/// "slpdas.cachecell.v1" entry instead — see ClaimDir::mark_done.)
[[nodiscard]] std::string format_shardmap_manifest(const ShardMapManifest&);
[[nodiscard]] std::string format_shardmap_claim(const ShardMapClaim&);
[[nodiscard]] std::string format_shardmap_heartbeat(const ShardMapHeartbeat&);
[[nodiscard]] std::string format_shardmap_error(const ShardMapError&);

/// Strict parses; throw std::runtime_error on malformed input, a wrong
/// schema string, a wrong record type, or a manifest whose worker_threads
/// is below 1 or whose threads_total is not workers x worker_threads.
[[nodiscard]] ShardMapManifest parse_shardmap_manifest(const std::string&);
[[nodiscard]] ShardMapClaim parse_shardmap_claim(const std::string&);
[[nodiscard]] ShardMapHeartbeat parse_shardmap_heartbeat(const std::string&);
[[nodiscard]] ShardMapError parse_shardmap_error(const std::string&);

/// Writes <directory>/shardmap.json atomically (unique tmp + rename, the
/// CellCache store pattern — atomic REPLACEMENT is fine for the manifest,
/// unlike for claims). Creates the directory if needed.
void write_shardmap_manifest(const std::string& directory,
                             const ShardMapManifest& manifest);

/// Reads <directory>/shardmap.json; nullopt when absent, throws on a
/// malformed or wrong-schema file.
[[nodiscard]] std::optional<ShardMapManifest> read_shardmap_manifest(
    const std::string& directory);

/// Whether `directory` looks like a fleet directory (has shardmap.json) —
/// how `slpdas_bench merge DIR` decides between the fleet fold and a
/// plain shard-artifact glob.
[[nodiscard]] bool is_fleet_directory(const std::string& directory);

// ---------------------------------------------------------------------------
// Claim directory
// ---------------------------------------------------------------------------

/// One coherent scan of the claim directory (coordinator view).
struct ShardMapScan {
  std::set<std::uint64_t> done;  ///< by done-marker file name alone
  /// Every claim file, by cell; one whose content does not parse has an
  /// empty worker (owned by no worker). A claim file may coexist with its
  /// done marker (the normal completed state).
  std::map<std::uint64_t, ShardMapClaim> claims;
  std::map<std::string, ShardMapHeartbeat> heartbeats;  ///< by worker name
  std::vector<ShardMapError> errors;
};

/// The claims/ subdirectory protocol: linked (never replaced) claims and
/// done markers, atomically renamed heartbeat/error markers. All methods
/// throw std::runtime_error on filesystem failure (except where noted); the
/// claim/done file layout is the wire protocol a remote launcher's shared
/// filesystem (or a future object-store port) must reproduce.
class ClaimDir {
 public:
  /// `fleet_directory` is the fleet root (the claims/ subdirectory is
  /// derived). Does not create anything — see create().
  explicit ClaimDir(std::string fleet_directory);

  /// Creates the claims/ subdirectory (and parents). Idempotent.
  void create() const;

  [[nodiscard]] const std::string& directory() const { return directory_; }
  [[nodiscard]] std::string claim_path(std::uint64_t cell) const;
  [[nodiscard]] std::string done_path(std::uint64_t cell) const;
  [[nodiscard]] std::string cell_error_path(std::uint64_t cell) const;
  [[nodiscard]] std::string worker_error_path(const std::string& worker) const;
  [[nodiscard]] std::string heartbeat_path(const std::string& worker) const;

  /// Atomically claims a cell: publishes `claim` as cell-N.claim
  /// (detail::write_file_exclusively: tmp + link). True when THIS call
  /// created the claim file, false when someone else already holds it.
  /// Throws on filesystem failure, with nothing published.
  [[nodiscard]] bool try_claim(const ShardMapClaim& claim) const;

  /// Removes a claim so another worker can take the cell (coordinator
  /// only, after the owner is known dead). Missing file is not an error.
  void release_claim(std::uint64_t cell) const;

  [[nodiscard]] bool is_done(std::uint64_t cell) const;

  /// Publishes `entry`, the cell's whole "slpdas.cachecell.v1" entry, as
  /// cell-N.done (detail::write_file_exclusively: tmp + link). Returns
  /// false when another worker published first (possible only after an
  /// expired claim): the first entry stands, and under `deterministic`
  /// differing bytes throw — a real nondeterminism bug.
  bool mark_done(std::uint64_t cell, const std::string& entry,
                 bool deterministic) const;
  void mark_error(const ShardMapError& error) const;
  void write_heartbeat(const ShardMapHeartbeat& heartbeat) const;

  /// Reads every marker in the directory. Done markers are counted by
  /// file name (their entries are the fold's business, not the poll
  /// loop's); an unparseable claim file counts as owned by no worker (see
  /// ShardMapScan). Tolerates files vanishing mid-scan (a release racing
  /// the scan).
  [[nodiscard]] ShardMapScan scan() const;

 private:
  std::string fleet_directory_;
  std::string directory_;  ///< <fleet>/claims
};

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

struct FleetWorkerOptions {
  std::string directory;  ///< the fleet directory
  /// Unique worker name ([A-Za-z0-9._-]); also the heartbeat/log file
  /// stem. The coordinator hands out fresh names (w0, w1, ...) —
  /// including for replacements — so no two incarnations ever share a
  /// heartbeat or a log.
  std::string worker;
  int heartbeat_interval_ms = 250;
  std::ostream* log = nullptr;  ///< event + per-cell progress lines
  CellCache* cache = nullptr;   ///< optional shared result cache (not owned)
};

/// The worker loop: verify the manifest against this process's own grid
/// expansion, then claim-run-publish cells until every cell in the grid
/// is done. The manifest sets the worker's shape: its pool size
/// (worker_threads) and timing mode (deterministic). Returns the number
/// of cells THIS worker computed. Throws on a manifest mismatch, a cell
/// whose runs threw (after writing the error marker), a done marker that
/// conflicts with this worker's under the manifest's `deterministic`, or
/// IO failure — always writing a worker/cell error marker first so the
/// coordinator aborts promptly instead of respawning into the same
/// failure.
std::size_t run_fleet_worker(const Scenario& scenario,
                             const ScenarioOptions& options,
                             const FleetWorkerOptions& worker_options);

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// Everything the coordinator needs to launch one worker; what the spawn
/// hook (local fork/exec today, ssh/slurm later) consumes.
struct FleetSpawnRequest {
  /// Wire form: {program, "fleet-worker", scenario, "--fleet-dir", dir,
  /// "--worker-name", name, ...scenario, heartbeat and cache flags...},
  /// where program is this executable (empty when FleetOptions::spawn is
  /// set: the hook chooses what to run). It carries no pool size or
  /// timing mode: the worker reads both from the manifest. A remote
  /// launcher runs exactly this argv on the target host (the fleet
  /// directory must be a shared filesystem).
  std::vector<std::string> argv;
  std::string worker;    ///< the worker name inside argv
  /// <dir>/logs/<worker>.log, created (empty) before the hook runs, so
  /// the worker name is taken even when a hook never opens the log.
  std::string log_path;
};

struct FleetOptions {
  std::string directory;  ///< fleet root; created if needed
  int workers = 4;
  int worker_threads = 1;  ///< pool size of each worker
  bool deterministic = false;
  int heartbeat_interval_ms = 250;
  /// A live worker whose heartbeat seq has not advanced for this long is
  /// presumed hung or unreachable: it is killed, its claims released, and
  /// a replacement spawned. Also expires claims owned by no live worker
  /// (e.g. left by a previous crashed coordinator). Must be at least
  /// 4 * heartbeat_interval_ms, or healthy workers would look stale.
  int claim_expiry_ms = 10'000;
  std::ostream* log = nullptr;  ///< coordinator event lines
  std::string cache_dir;        ///< forwarded to workers as --cache
  bool cache_readonly = false;
  /// Launcher hook: start ONE worker process for `request`, return its
  /// pid. Defaults to local fork/exec with stdout+stderr redirected to
  /// request.log_path. Tests substitute in-process forks; an ssh/slurm
  /// launcher substitutes remote dispatch of request.argv.
  std::function<std::int64_t(const FleetSpawnRequest& request)> spawn;
};

/// Runs the whole fleet: manifest, workers, heartbeat supervision, claim
/// expiry, respawns, and the final fold. Returns the merged document —
/// byte-identical, under `deterministic`, to an unsharded single-process
/// run with --threads workers*worker_threads. An existing fleet directory
/// for the SAME sweep and shape (workers, worker_threads) resumes (done
/// cells are kept, their claims stay); one for a different sweep or
/// shape throws, and so does one whose done marker
/// is invalid or whose cache key differs in any field from this run's key
/// for that cell (the same labels on another radio, say) — before any
/// worker is spawned.
/// Throws when any cell fails, when the spawn budget (workers * 8
/// spawns, replacements included) is exhausted, or on filesystem failure
/// — after killing every worker it launched.
/// Throws std::invalid_argument on bad options, including a
/// claim_expiry_ms below 4 * heartbeat_interval_ms.
[[nodiscard]] SweepJson run_fleet(const Scenario& scenario,
                                  const ScenarioOptions& options,
                                  const FleetOptions& fleet_options);

// ---------------------------------------------------------------------------
// Fold
// ---------------------------------------------------------------------------

/// Reads a fleet directory — the manifest and the done marker of every
/// cell below cells_total, in index order — and folds it into the
/// unsharded document: threads from manifest.threads_total,
/// distinct_worker_threads 0, wall_seconds as the cell sum — exactly what
/// fold_cell_stream yields for one process. A missing or invalid marker,
/// one naming another cell (index != N) or another timing mode than the
/// manifest's is a std::runtime_error naming the cell.
/// How both the coordinator and `slpdas_bench merge DIR` produce the
/// final document.
[[nodiscard]] SweepJson fold_fleet_directory(const std::string& directory);

}  // namespace slpdas::core
