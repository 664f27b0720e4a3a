// Parallel scenario-sweep engine.
//
// A sweep runs a grid of ExperimentConfigs — network sizes x protocols x
// attacker specs x radio models — over ONE shared thread pool scheduled
// at (cell, run) granularity, so a 3x3 grid with 100 seeds each is 900
// independent work items rather than nine sequential 100-run loops.
// Per-cell seeds derive deterministically from the sweep seed and
// the cell label, so adding, removing or reordering cells never changes
// any other cell's results, and aggregation happens in run-index order so
// a sweep's output is byte-identical for any thread count.
//
// Sweeps also scale past one process: `SweepOptions::shard_index/count`
// deterministically partitions the grid by cell index, each shard emits
// its own JSON document, and merge_sweep_shards recombines shard
// documents into one that (with deterministic timing) is bit-identical
// to an unsharded run.
//
// Results serialise to the BENCH_*.json schema documented in README.md
// ("slpdas.sweep.v2") via a single writer over the SweepJson model, so a
// written-then-reparsed-then-rewritten document is byte-stable — the
// property the shard merge relies on.
//
// Long sweeps survive a kill through `SweepOptions::cache` (cell_cache.hpp):
// every computed cell is stored the moment it completes, so a rerun over
// the same cache serves the finished cells as validated hits and runs only
// the rest. `SweepOptions::stream` additionally appends one
// "slpdas.cell.v1" JSONL record per completed cell to a caller's sink,
// and fold_cell_stream turns a complete stream back into the ordinary
// document.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "slpdas/core/experiment.hpp"
#include "slpdas/core/thread_pool.hpp"

namespace slpdas::core {

class CellCache;  // cell_cache.hpp — content-addressed cell result store

/// One fully materialised point of the sweep grid.
struct SweepCell {
  /// Stable identifier, e.g. "side=11/protocol=slp-das". Labels must be
  /// unique within one sweep (run_sweep throws on duplicates).
  std::string label;
  /// Seed-derivation key. Defaults to the label; cells that should share
  /// a seed stream (common random numbers across protocols, say) set the
  /// same seed_label, which SweepGrid does for axes added with
  /// `seeded = false`. Empty means "use the label".
  std::string seed_label;
  /// The axis assignments that produced this cell, in axis order.
  std::vector<std::pair<std::string, std::string>> coordinates;
  ExperimentConfig config;
};

/// Builder for cartesian sweep grids. Axes are applied in the order they
/// were added; each cell's label is "axis1=v1/axis2=v2/...".
class SweepGrid {
 public:
  using Mutator = std::function<void(ExperimentConfig&)>;

  struct AxisValue {
    std::string value;  ///< label fragment, e.g. "11" or "slp-das"
    Mutator apply;
  };

  explicit SweepGrid(ExperimentConfig base) : base_(std::move(base)) {}

  /// Adds an axis. `seeded = false` leaves the axis out of seed
  /// derivation, so cells differing only along it share a per-run seed
  /// stream — the common-random-numbers pairing that makes "A vs B"
  /// comparisons (paper Figure 5) low-variance.
  SweepGrid& axis(std::string name, std::vector<AxisValue> values,
                  bool seeded = true);

  /// Cartesian product of all axes (row-major: the last axis varies
  /// fastest). An axis with no values, or a grid with no axes, expands to
  /// an empty cell list.
  [[nodiscard]] std::vector<SweepCell> expand() const;

 private:
  struct Axis {
    std::string name;
    std::vector<AxisValue> values;
    bool seeded = true;
  };

  ExperimentConfig base_;
  std::vector<Axis> axes_;
};

/// Deterministic per-cell seed: mixes the sweep seed with an FNV-1a hash
/// of the cell's seed label, so a cell's runs are invariant under grid
/// edits (and shared between cells with equal seed labels).
[[nodiscard]] std::uint64_t derive_cell_seed(std::uint64_t base_seed,
                                             std::string_view label);

/// Fingerprint of the full grid (every cell's label, seed label and run
/// count, in order). Shards — and streams and fleet manifests — of one
/// sweep agree on it; different grids (a changed axis value, run count or
/// cell order) virtually never do.
[[nodiscard]] std::uint64_t hash_sweep_grid(const std::vector<SweepCell>& cells);

struct SweepOptions {
  int threads = 0;              ///< 0 = hardware concurrency
  std::uint64_t base_seed = 1;  ///< sweep-level seed, mixed per cell
  std::ostream* progress = nullptr;  ///< when set, one line per finished cell
  /// Progress lines accumulate in an internal buffer that flushes as ONE
  /// stream write (so concurrent writers never interleave partial lines)
  /// at most once per this interval. Lines buffered inside the interval
  /// are written with the next completed cell or at sweep end — no timer
  /// thread runs, so a lull in completions delays the flush too.
  int progress_interval_ms = 100;
  /// This process's shard: runs only cells whose index in the full cell
  /// list satisfies `index % shard_count == shard_index`. Seeds still
  /// derive from the full grid, so shard results are bit-identical to the
  /// same cells of an unsharded run.
  int shard_index = 0;
  int shard_count = 1;
  /// Records every wall_seconds as 0 and distinct_worker_threads as 0, so
  /// the serialised document is a pure function of (cells, base_seed,
  /// threads) — required for the merge-exact shard round-trip.
  bool deterministic_timing = false;
  /// When set, every completed cell appends one self-contained
  /// "slpdas.cell.v1" JSONL record to this sink — composed off-stream and
  /// written as ONE flushed write under the sweep mutex, so a killed
  /// process leaves only whole lines (plus at most one torn tail that
  /// read_cell_stream drops). Cells whose runs threw are NOT recorded:
  /// the stream only ever contains results a fold may trust. The caller
  /// writes the header record (write_cell_stream_header) first.
  std::ostream* stream = nullptr;
  /// Optional content-addressed result cache (cell_cache.hpp). Probed
  /// once per cell BEFORE any of its runs is scheduled: a validated hit
  /// skips the simulation entirely (the stored record is reported — and
  /// streamed — exactly like a computed cell, so folds and documents stay
  /// bit-identical to a cold run), a miss computes the cell and stores it
  /// on completion — after its stream record is written, so the cache
  /// never holds a cell the stream lacks. Because a cell is stored the
  /// moment it completes, rerunning a killed sweep over the same cache is
  /// its crash-safe resume. Not owned; nullptr disables caching.
  CellCache* cache = nullptr;
};

/// Parsed/serialisable view of a sweep JSON document. This is the value
/// model behind the single JSON writer: SweepResults convert into it, the
/// reader produces it, merge_sweep_shards combines instances of it, and
/// CellCache stores cells of it. (Defined before SweepCellResult because a
/// cache hit carries the stored cell through the result.)
struct SweepJsonStats {
  std::uint64_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  /// NaN when count == 0 (serialised as null) — also the default, so a
  /// default-constructed block serialises as null, not as a fabricated 0.
  double min = std::numeric_limits<double>::quiet_NaN();
  double max = std::numeric_limits<double>::quiet_NaN();
};

struct SweepJsonCell {
  std::uint64_t index = 0;  ///< position in the full (unsharded) grid
  std::string label;
  std::vector<std::pair<std::string, std::string>> coordinates;
  std::uint64_t cell_seed = 0;
  int runs = 0;
  /// Per-cell "config" block: the canonical topology/protocol/attacker/
  /// radio spec strings of the experiment. Present in every document this
  /// library writes (deterministic ones included — the specs are part of
  /// the experiment's identity, unlike the perf telemetry); a hand-built
  /// cell without specs leaves it false and serialises without the block.
  bool has_config = false;
  std::string config_topology;
  std::string config_protocol;
  std::string config_attacker;
  std::string config_radio;
  std::uint64_t capture_trials = 0;
  std::uint64_t capture_successes = 0;
  double capture_ratio = 0.0;
  double capture_wilson95_low = 0.0;
  double capture_wilson95_high = 0.0;
  SweepJsonStats capture_time_s;
  SweepJsonStats delivery_ratio;
  SweepJsonStats delivery_latency_s;
  SweepJsonStats control_messages_per_node;
  SweepJsonStats normal_messages_per_node;
  SweepJsonStats attacker_moves;
  SweepJsonStats slot_band_span;
  SweepJsonStats schedule_density;
  int schedule_incomplete_runs = 0;
  int weak_das_failures = 0;
  int strong_das_failures = 0;
  double wall_seconds = 0.0;
  /// Per-cell event-loop telemetry ("perf" object): present only in
  /// real-clock (non---deterministic) documents — absent, the whole block
  /// is skipped by the writer so deterministic output is byte-stable
  /// across library versions. Event counts are deterministic; the
  /// events-per-second rate divides them by the cell's wall clock.
  bool has_perf = false;
  std::uint64_t perf_events = 0;
  std::uint64_t perf_deliveries = 0;
  std::uint64_t perf_timer_fires = 0;
  double perf_events_per_sec = 0.0;

  /// Coordinate value for axis `name`, or nullptr when absent.
  [[nodiscard]] const std::string* coordinate(std::string_view name) const;
};

struct SweepCellResult {
  std::size_t index = 0;  ///< position in the FULL (unsharded) cell list
  std::string label;
  std::vector<std::pair<std::string, std::string>> coordinates;
  std::uint64_t cell_seed = 0;
  int runs = 0;
  /// Canonical spec strings of the cell's ExperimentConfig (topology /
  /// protocol / attacker / radio) — the per-cell "config" block of the
  /// serialised document, so every cell names the experiment it ran
  /// independently of how the axis labels were spelled.
  std::string config_topology;
  std::string config_protocol;
  std::string config_attacker;
  std::string config_radio;
  ExperimentResult result;
  double wall_seconds = 0.0;
  /// Whether the serialised cell carries the perf telemetry block
  /// (events/deliveries/timer fires/events-per-second). run_sweep sets it
  /// for real-clock runs only: under deterministic timing the block is
  /// omitted entirely, so "slpdas.sweep.v2" documents stay byte-identical
  /// to pre-telemetry output and the merge/stream bit-identity contract
  /// is untouched.
  bool record_perf = false;
  /// Set on a cache hit: the validated stored record, with THIS sweep's
  /// index/label/coordinates grafted back on. When present it IS the
  /// cell's serialised form — `result` above is default-constructed
  /// (ExperimentResult cannot be reconstructed bit-exactly from the
  /// aggregated JSON stats) and to_sweep_json emits this record instead.
  std::optional<SweepJsonCell> cached;
};

struct SweepResult {
  std::vector<SweepCellResult> cells;  ///< this shard's cells, grid order
  std::uint64_t base_seed = 0;  ///< the sweep seed every cell derived from
  /// Fingerprint of the FULL grid (every cell's label, seed label and run
  /// count, in order) — identical across shards of one sweep because each
  /// shard is handed the whole cell list. Lets merge refuse shards that
  /// were produced from different grids (e.g. mismatched --sd or --runs).
  std::uint64_t grid_hash = 0;
  int shard_index = 0;
  int shard_count = 1;
  std::size_t cells_total = 0;  ///< full grid size across all shards
  int threads = 0;              ///< pool size used
  /// Distinct worker-thread ids observed across ALL cells; with a shared
  /// pool this never exceeds `threads` no matter how many cells ran.
  int distinct_worker_threads = 0;
  double wall_seconds = 0.0;
};

/// Runs every (cell, run) pair of this shard on an internally owned pool
/// of `options.threads` workers. `config.runs` supplies the run count; run
/// `i` of a cell uses derive_seed(derive_cell_seed(options.base_seed,
/// seed label), i): seeds are sweep-derived and the pool is shared. Throws
/// std::invalid_argument on duplicate labels, a cell with runs < 1, or an
/// invalid shard spec. Deterministic in (cells, options.base_seed).
[[nodiscard]] SweepResult run_sweep(const std::vector<SweepCell>& cells,
                                    const SweepOptions& options);

/// Same, but on a caller-provided pool so several sweeps can share one.
[[nodiscard]] SweepResult run_sweep(const std::vector<SweepCell>& cells,
                                    const SweepOptions& options,
                                    ThreadPool& pool);

struct SweepJson {
  std::string schema;  ///< "slpdas.sweep.v2" when written by this library
  std::string name;
  /// The sweep seed (SweepOptions::base_seed) recorded so documents are
  /// self-describing and merge can refuse mixed-seed shard sets, which
  /// would silently break common-random-numbers pairings.
  std::uint64_t base_seed = 0;
  /// Full-grid fingerprint (see SweepResult::grid_hash); merge refuses
  /// shard sets whose grids differ.
  std::uint64_t grid_hash = 0;
  int shard_index = 0;
  int shard_count = 1;
  std::uint64_t cells_total = 0;
  int threads = 0;
  int distinct_worker_threads = 0;
  double wall_seconds = 0.0;
  std::vector<SweepJsonCell> cells;
};

/// Converts a sweep result into the JSON value model. `name` is the bench
/// identifier (conventionally the BENCH_<name>.json file stem).
[[nodiscard]] SweepJson to_sweep_json(const SweepResult& result,
                                      std::string_view name);

/// Serialises the "slpdas.sweep.v2" schema. All documents — fresh runs,
/// reparsed files, merged shards — go through this one writer, so equal
/// values always produce equal bytes.
void write_sweep_json(std::ostream& out, const SweepJson& document);

/// Parses a "slpdas.sweep.v2" document. Throws std::runtime_error on
/// malformed input (an integer field that is not an exact integer in
/// 0..INT_MAX included) or any other schema string.
[[nodiscard]] SweepJson read_sweep_json(std::istream& in);

/// Recombines shard documents of one sweep into the unsharded document:
/// the inputs must share name, base_seed, grid_hash and cells_total,
/// carry shard_count equal to
/// the number of documents with each shard_index present exactly once,
/// and their cells must cover every index 0..cells_total-1 exactly once.
/// The merged document has shard 0-of-1, threads and
/// distinct_worker_threads as the per-shard maxima, and wall_seconds as
/// the per-shard sum — so merging deterministic-timing shards reproduces
/// the unsharded deterministic document bit for bit. Throws
/// std::runtime_error on inconsistent inputs.
[[nodiscard]] SweepJson merge_sweep_shards(std::vector<SweepJson> shards);

// ---------------------------------------------------------------------------
// Incremental cell streams ("slpdas.cell.v1")
// ---------------------------------------------------------------------------
//
// A cell stream is the line-oriented form of a sweep: a JSONL sink whose
// first line identifies the sweep (this header) and whose every further
// line is one completed cell, appended the moment it finishes. Folding a
// complete stream gives the ordinary "slpdas.sweep.v2" document —
// bit-identical (under deterministic timing) to an unstreamed run, so
// folded streams compose with merge_sweep_shards unchanged.
//
// A stream has ONE writer at a time: run_sweep serialises its own record
// writes, but two processes appending to one file would interleave
// records of two sweeps. Give concurrent processes distinct sinks (one
// per shard) and merge the folded documents instead. Resuming a killed
// sweep is the cell cache's job (SweepOptions::cache), not the stream's.

/// Header record of a cell stream: the sweep-level identity its fold
/// carries into the document.
struct CellStreamHeader {
  std::string schema;  ///< "slpdas.cell.v1" when written by this library
  std::string name;    ///< bench identifier (matches the folded document)
  std::uint64_t base_seed = 0;
  std::uint64_t grid_hash = 0;  ///< hash_sweep_grid of the FULL grid
  int shard_index = 0;
  int shard_count = 1;
  std::uint64_t cells_total = 0;  ///< full grid size across all shards
  /// Whether the run that wrote the stream zeroed its wall clocks.
  bool deterministic = false;
  /// Pool size of the run that wrote the stream; the fold records it as
  /// the document's `threads` (results never depend on the pool size).
  int threads = 0;
};

/// A parsed cell stream: the header plus every whole-line record, in file
/// (i.e. completion) order. fold_cell_stream re-sorts by cell index.
struct CellStream {
  CellStreamHeader header;
  std::vector<SweepJsonCell> cells;
};

/// Writes the header record as one JSONL line (schema "slpdas.cell.v1").
void write_cell_stream_header(std::ostream& out,
                              const CellStreamHeader& header);

/// Writes one completed cell as one self-contained JSONL line. The field
/// set and formatting discipline match the "slpdas.sweep.v2" cell objects
/// (single writer, max_digits10 doubles), so a record read back and
/// rewritten is byte-stable — the property the cache entries (and so the
/// fleet's done markers) rely on.
void write_cell_stream_record(std::ostream& out, const SweepJsonCell& cell);

/// Parses a cell-stream file. A final line without a terminating newline
/// is a torn write from a killed process and is silently dropped; any
/// complete but malformed line, a missing/unknown header, a record whose
/// index falls outside the grid or the header's shard, or a duplicate
/// record for one cell throws std::runtime_error.
[[nodiscard]] CellStream read_cell_stream(std::istream& in);

/// Folds a COMPLETE stream (every cell of the header's shard present) into
/// the ordinary "slpdas.sweep.v2" document: cells sorted by index, threads
/// from the header, distinct_worker_threads 0 and wall_seconds the sum of
/// the cell wall clocks — so a deterministic-timing stream folds into a
/// document bit-identical to an uninterrupted run. Throws
/// std::runtime_error naming the first missing cell when the stream is
/// still partial.
[[nodiscard]] SweepJson fold_cell_stream(const CellStream& stream);

}  // namespace slpdas::core
