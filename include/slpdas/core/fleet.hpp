// Distributed sweep fabric: a multi-process coordinator with
// cell-granular work stealing ("slpdas.shardmap.v1").
//
// A fleet run executes ONE scenario sweep across N worker processes that
// share nothing but a directory. The coordinator writes a manifest
// identifying the sweep, spawns the workers, and watches; each worker
// re-expands the grid from the scenario registry, then pulls the next
// unclaimed cell from the claim directory, runs it, appends the result to
// its own "slpdas.cell.v1" stream file, and marks the cell done. Cells —
// not static round-robin shards — are the unit of distribution, so a
// straggler cell (a big unit-disk topology, say) occupies one worker
// while the others drain the rest of the grid.
//
// Claim protocol (the part a future ssh/slurm launcher reuses as-is):
//   <dir>/shardmap.json            manifest (tmp+rename, like CellCache)
//   <dir>/claims/cell-N.claim      exclusive-create (O_EXCL) = ownership
//   <dir>/claims/cell-N.done       written AFTER the record is flushed
//   <dir>/claims/cell-N.error      a cell's runs threw; coordinator aborts
//   <dir>/claims/worker-W.heartbeat  liveness counter, rewritten in place
//   <dir>/claims/worker-W.error    worker-fatal failure (bad manifest, IO)
//   <dir>/streams/W.jsonl          one cell stream per worker incarnation
//   <dir>/logs/W.log               worker stdout+stderr (local launcher)
//
// Exclusive create — not tmp+rename, which silently REPLACES on POSIX —
// is what makes a claim a claim: exactly one process wins the open(2).
// The done marker is only written after the worker's stream has flushed
// the cell record, so "done" always means "durably recorded". A worker
// that dies mid-cell leaves a claim without a done marker (and at most a
// torn stream tail, which the stream reader drops); the coordinator reaps
// the death — or, for workers it cannot reap, notices the heartbeat go
// stale — releases the orphaned claims, and spawns a replacement. Because
// every worker re-derives seeds from the full grid, reassignment is free:
// the replacement recomputes the cell bit-identically.
//
// The fold obeys the "parallel compute, single-threaded stable merge"
// determinism rule: all worker streams are read back, deduplicated by
// cell index (duplicates arise only from deaths between the stream flush
// and the done marker; under --deterministic they must be byte-identical,
// and a mismatch aborts the fold), sorted, and written through the one
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
// Shardmap records ("slpdas.shardmap.v1")
// ---------------------------------------------------------------------------

/// Schema tag written into every shardmap record; the format_* writers
/// emit it and the parse_* readers verify it.
inline constexpr std::string_view kShardMapSchema = "slpdas.shardmap.v1";

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

/// One worker's exclusive ownership of one cell (cell-N.claim). The file's
/// EXISTENCE is the claim — content is advisory (who/where), and a claim
/// whose content never got written (owner died inside the two-syscall
/// window) is still honoured until the coordinator expires it.
struct ShardMapClaim {
  std::uint64_t cell = 0;
  std::string worker;
  std::int64_t pid = 0;
};

/// Completion marker (cell-N.done): the named worker's stream durably
/// holds this cell's record.
struct ShardMapDone {
  std::uint64_t cell = 0;
  std::string worker;
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
/// Without one (worker-W.error) the worker itself failed to start or to
/// write its stream.
struct ShardMapError {
  std::optional<std::uint64_t> cell;
  std::string worker;
  std::string message;
};

/// Single-line serialisations (no trailing newline) of the shardmap
/// records, through the same escaping/number discipline as every other
/// document this library writes.
[[nodiscard]] std::string format_shardmap_manifest(const ShardMapManifest&);
[[nodiscard]] std::string format_shardmap_claim(const ShardMapClaim&);
[[nodiscard]] std::string format_shardmap_done(const ShardMapDone&);
[[nodiscard]] std::string format_shardmap_heartbeat(const ShardMapHeartbeat&);
[[nodiscard]] std::string format_shardmap_error(const ShardMapError&);

/// Strict parses; throw std::runtime_error on malformed input, a wrong
/// schema string, or a wrong record type.
[[nodiscard]] ShardMapManifest parse_shardmap_manifest(const std::string&);
[[nodiscard]] ShardMapClaim parse_shardmap_claim(const std::string&);
[[nodiscard]] ShardMapDone parse_shardmap_done(const std::string&);
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
  std::set<std::uint64_t> done;
  /// Claims whose content parsed, by cell. A claim file may coexist with
  /// its done marker (the normal completed state).
  std::map<std::uint64_t, ShardMapClaim> claims;
  /// Claim files whose content is missing or unparseable — the owner died
  /// (or is still inside) the create-then-write window. Ownership unknown;
  /// expired by the coordinator on staleness alone.
  std::set<std::uint64_t> unreadable_claims;
  std::map<std::string, ShardMapHeartbeat> heartbeats;  ///< by worker name
  std::vector<ShardMapError> errors;
};

/// The claims/ subdirectory protocol: exclusive-create claims, atomically
/// renamed done/heartbeat/error markers. All methods throw
/// std::runtime_error on filesystem failure (except where noted); the
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

  /// Atomically claims a cell: true when THIS call created the claim file
  /// (exclusive create), false when someone else already holds it. The
  /// advisory claim record is written into the file after the create; a
  /// write failure releases the claim and throws.
  [[nodiscard]] bool try_claim(const ShardMapClaim& claim) const;

  /// Removes a claim so another worker can take the cell (coordinator
  /// only, after the owner is known dead). Missing file is not an error.
  void release_claim(std::uint64_t cell) const;

  [[nodiscard]] bool is_done(std::uint64_t cell) const;
  void mark_done(const ShardMapDone& done) const;
  void mark_error(const ShardMapError& error) const;
  void write_heartbeat(const ShardMapHeartbeat& heartbeat) const;

  /// Reads every marker in the directory. Unparseable claim files are
  /// reported as unreadable (see ShardMapScan); unparseable done markers
  /// throw — a done marker is only ever written whole via rename, so a
  /// bad one means real corruption. Tolerates files vanishing mid-scan
  /// (a release racing the scan).
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
  /// Unique worker name ([A-Za-z0-9._-]); also the stream/heartbeat/log
  /// file stem. The coordinator hands out fresh names (w0, w1, ...) —
  /// including for replacements — so no two incarnations ever share a
  /// stream file.
  std::string worker;
  int threads = 1;  ///< this worker's pool size (>= 1)
  bool deterministic = false;
  int heartbeat_interval_ms = 250;
  /// How long to sleep when every remaining cell is claimed by someone
  /// else (the only idle state — an unclaimed cell is taken immediately).
  int idle_wait_ms = 20;
  std::ostream* log = nullptr;  ///< event + per-cell progress lines
  CellCache* cache = nullptr;   ///< optional shared result cache (not owned)
};

/// The worker loop: verify the manifest against this process's own grid
/// expansion, write the stream header, then claim-run-record-mark cells
/// until every cell in the grid is done. Returns the number of cells THIS
/// worker computed. Throws on a manifest mismatch, a cell whose runs
/// threw (after writing the error marker), or stream IO failure — always
/// writing a worker/cell error marker first so the coordinator aborts
/// promptly instead of respawning into the same failure.
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
  /// "--worker-name", name, ...scenario and execution flags...}, where
  /// program is this executable (empty when FleetOptions::spawn is set:
  /// the hook chooses what to run). A remote
  /// launcher runs exactly this argv on the target host (the fleet
  /// directory must be a shared filesystem).
  std::vector<std::string> argv;
  std::string worker;    ///< the worker name inside argv
  std::string log_path;  ///< <dir>/logs/<worker>.log
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
  /// (e.g. left by a previous crashed coordinator).
  int claim_expiry_ms = 10'000;
  int poll_interval_ms = 25;
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
/// for the SAME sweep resumes (done cells are kept, their claims stay);
/// one for a different sweep throws. Throws when any cell fails, when the
/// spawn budget (workers * 8 spawns, replacements included) is exhausted,
/// or on filesystem failure — after killing every worker it launched.
[[nodiscard]] SweepJson run_fleet(const Scenario& scenario,
                                  const ScenarioOptions& options,
                                  const FleetOptions& fleet_options);

// ---------------------------------------------------------------------------
// Fold
// ---------------------------------------------------------------------------

/// Pure fold of worker streams into the unsharded document. Every stream
/// header must match the manifest (name, base_seed, grid_hash,
/// cells_total, deterministic; full-grid shard). Records are deduplicated
/// by cell index — first stream in the given order wins, and under
/// `manifest.deterministic` a byte-differing duplicate throws (it would
/// mean two workers disagreed on a cell's results) — then sorted;
/// coverage of every index is required. The document takes threads from
/// manifest.threads_total, distinct_worker_threads 0, wall_seconds as the
/// cell sum — exactly what fold_cell_stream yields for one process.
[[nodiscard]] SweepJson merge_worker_streams(const ShardMapManifest& manifest,
                                             const std::vector<CellStream>&
                                                 streams);

/// Reads a fleet directory (manifest + streams/*.jsonl in filename order,
/// skipping streams with no complete header line — a worker killed before
/// its first flush) and folds it. How both the coordinator and
/// `slpdas_bench merge DIR` produce the final document.
[[nodiscard]] SweepJson fold_fleet_directory(const std::string& directory);

}  // namespace slpdas::core
