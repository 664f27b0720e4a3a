#include "slpdas/core/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <exception>
#include <iomanip>
#include <istream>
#include <iterator>
#include <limits>
#include <mutex>
#include <ostream>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "cell_record.hpp"
#include "fnv.hpp"
#include "json.hpp"
#include "slpdas/core/cell_cache.hpp"
#include "slpdas/core/run_batch.hpp"

namespace slpdas::core {

// ---------------------------------------------------------------------------
// Grid expansion
// ---------------------------------------------------------------------------

SweepGrid& SweepGrid::axis(std::string name, std::vector<AxisValue> values,
                           bool seeded) {
  axes_.push_back(Axis{std::move(name), std::move(values), seeded});
  return *this;
}

std::vector<SweepCell> SweepGrid::expand() const {
  std::vector<SweepCell> cells;
  if (axes_.empty()) {
    return cells;
  }
  std::size_t total = 1;
  for (const Axis& axis : axes_) {
    total *= axis.values.size();
  }
  cells.reserve(total);
  std::vector<std::size_t> index(axes_.size(), 0);
  for (std::size_t cell = 0; cell < total; ++cell) {
    SweepCell out;
    out.config = base_;
    for (std::size_t a = 0; a < axes_.size(); ++a) {
      const Axis& axis = axes_[a];
      const AxisValue& value = axis.values[index[a]];
      if (!out.label.empty()) {
        out.label += '/';
      }
      out.label += axis.name + "=" + value.value;
      if (axis.seeded) {
        if (!out.seed_label.empty()) {
          out.seed_label += '/';
        }
        out.seed_label += axis.name + "=" + value.value;
      }
      out.coordinates.emplace_back(axis.name, value.value);
      if (value.apply) {
        value.apply(out.config);
      }
    }
    if (out.seed_label.empty()) {
      // Every axis unseeded: all cells share one stream (not the label
      // fallback, which would give each cell its own).
      out.seed_label = "*";
    }
    cells.push_back(std::move(out));
    // Row-major increment: the last axis varies fastest.
    for (std::size_t a = axes_.size(); a-- > 0;) {
      if (++index[a] < axes_[a].values.size()) {
        break;
      }
      index[a] = 0;
    }
  }
  return cells;
}

std::uint64_t hash_sweep_grid(const std::vector<SweepCell>& cells) {
  std::uint64_t hash = detail::kFnvOffset;
  for (const SweepCell& cell : cells) {
    hash = detail::fnv1a_field(hash, cell.label);
    hash = detail::fnv1a_field(hash, cell.seed_label);
    hash = detail::fnv1a_field(hash, std::to_string(cell.config.runs));
  }
  return hash;
}

std::uint64_t derive_cell_seed(std::uint64_t base_seed,
                               std::string_view label) {
  // FNV-1a over the label keeps the seed a pure function of the cell's
  // identity, not its position in the grid.
  return derive_seed(base_seed, detail::fnv1a_bytes(detail::kFnvOffset, label));
}

std::uint64_t detail::cell_seed_of(const SweepCell& cell,
                                   std::uint64_t base_seed) {
  return derive_cell_seed(
      base_seed, cell.seed_label.empty() ? cell.label : cell.seed_label);
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

namespace {

// slpdas-lint: allow(wall-clock): wall_seconds/perf telemetry, zeroed under --deterministic, never feeds a simulation
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Mutable state for one in-flight cell.
struct CellProgress {
  std::vector<RunResult> runs;
  std::atomic<int> remaining{0};
  Clock::time_point started{};
  std::atomic<bool> started_set{false};
  std::atomic<bool> failed{false};
  /// The cell's materialised topology: built lazily by the FIRST worker
  /// to touch the cell (configs only carry specs) and shared read-only by
  /// the cell's other runs; released again when the last run finishes, so
  /// peak memory scales with the cells in flight, not the grid.
  std::once_flag build_topology;
  wsn::Topology topology;
  /// Set inside the call_once when the build throws; every slice rethrows
  /// it. The exception must NOT escape the call_once callable itself:
  /// TSan's pthread_once interceptor does not unwind its once-guard, so a
  /// throwing callable leaves every other waiter blocked forever.
  std::exception_ptr build_error;
  /// The cell's shared run-invariant state, built inside the same
  /// call_once right after the topology (which it references — reset
  /// FIRST on release).
  std::optional<RunBatch> batch;
};

/// Defined in the JSON section below; run_sweep streams through it.
SweepJsonCell to_json_cell(const SweepCellResult& cell);

}  // namespace

SweepResult run_sweep(const std::vector<SweepCell>& cells,
                      const SweepOptions& options) {
  ThreadPool pool(options.threads);
  return run_sweep(cells, options, pool);
}

SweepResult run_sweep(const std::vector<SweepCell>& cells,
                      const SweepOptions& options, ThreadPool& pool) {
  const Clock::time_point sweep_start = Clock::now();

  if (options.shard_count < 1 || options.shard_index < 0 ||
      options.shard_index >= options.shard_count) {
    throw std::invalid_argument("run_sweep: invalid shard " +
                                std::to_string(options.shard_index) + "/" +
                                std::to_string(options.shard_count));
  }

  // Validate the FULL grid — even cells other shards will run — so every
  // shard agrees on what the grid is before partitioning it.
  std::set<std::string_view> labels;
  for (const SweepCell& cell : cells) {
    if (cell.config.runs < 1) {
      throw std::invalid_argument("run_sweep: cell '" + cell.label +
                                  "' has runs < 1");
    }
    if (!labels.insert(cell.label).second) {
      throw std::invalid_argument("run_sweep: duplicate cell label '" +
                                  cell.label + "'");
    }
  }

  // Deterministic round-robin partition by full-grid cell index.
  std::vector<std::size_t> mine;
  for (std::size_t c = static_cast<std::size_t>(options.shard_index);
       c < cells.size(); c += static_cast<std::size_t>(options.shard_count)) {
    mine.push_back(c);
  }

  SweepResult sweep;
  sweep.base_seed = options.base_seed;
  sweep.grid_hash = hash_sweep_grid(cells);
  sweep.shard_index = options.shard_index;
  sweep.shard_count = options.shard_count;
  sweep.cells_total = cells.size();
  sweep.threads = pool.thread_count();
  sweep.cells.resize(mine.size());

  std::vector<CellProgress> progress(mine.size());
  std::mutex mutex;  // guards worker_ids, finished count, progress buffer
  std::set<std::thread::id> worker_ids;
  std::size_t cells_finished = 0;
  std::exception_ptr first_error;
  // Set when a stream record write fails (ENOSPC, a yanked volume): the
  // sweep is then doomed to rethrow, so nothing further is recorded,
  // stored or simulated — those cells could not be recorded, and a rerun
  // over the cache recomputes them anyway.
  std::atomic<bool> stream_failed{false};
  // Progress lines accumulate here and flush as ONE stream write at most
  // once per progress_interval_ms (re-checked at every cell completion
  // and once after the pool drains), so lines are never interleaved
  // mid-way and a fast sweep cannot flood stderr.
  std::string progress_pending;
  Clock::time_point progress_last_flush = sweep_start;

  // Metadata for every cell of this shard first (grid position, derived
  // seed, canonical spec strings): both the cache probe and the workers
  // read it.
  std::vector<std::uint64_t> cell_seeds(mine.size(), 0);
  for (std::size_t m = 0; m < mine.size(); ++m) {
    const SweepCell& cell = cells[mine[m]];
    cell_seeds[m] = detail::cell_seed_of(cell, options.base_seed);
    sweep.cells[m].index = mine[m];
    sweep.cells[m].label = cell.label;
    sweep.cells[m].coordinates = cell.coordinates;
    sweep.cells[m].cell_seed = cell_seeds[m];
    sweep.cells[m].runs = cell.config.runs;
    sweep.cells[m].config_topology = cell.config.topology.to_string();
    sweep.cells[m].config_protocol = format_protocol_spec(
        cell.config.protocol, cell.config.phantom_walk_length);
    sweep.cells[m].config_attacker = cell.config.attacker.to_spec();
    sweep.cells[m].config_radio =
        format_radio_spec(cell.config.radio, cell.config.loss_probability);
  }

  // The one completion step, for cache hits and computed cells alike:
  // serialise the cell once, append its stream record (ONE write + flush,
  // so a kill leaves whole lines — at worst one torn tail, which
  // read_cell_stream drops), store a computed cell in the cache only once
  // its record is durably written (the cache never holds a cell the
  // stream lacks), and queue the progress line. A cell with a failed run
  // is neither recorded nor stored: a stream fold, and a later cache hit,
  // must not trust it. `elapsed` is a computed cell's real compute time, shown
  // on its progress line even under deterministic timing.
  const auto complete = [&](std::size_t m, bool recordable, double elapsed) {
    const SweepCellResult& out = sweep.cells[m];
    const bool hit = out.cached.has_value();
    const SweepJsonCell record = to_json_cell(out);
    std::string line;
    if (options.stream != nullptr && recordable) {
      std::ostringstream composed;
      write_cell_stream_record(composed, record);
      line = std::move(composed).str();
    }
    bool recorded = options.stream == nullptr;
    {
      const std::scoped_lock lock(mutex);
      if (!line.empty() && !stream_failed.load(std::memory_order_relaxed)) {
        *options.stream << line;
        options.stream->flush();
        recorded = options.stream->good();
        if (!recorded) {
          stream_failed.store(true, std::memory_order_relaxed);
          if (!first_error) {
            first_error = std::make_exception_ptr(std::runtime_error(
                "cell stream write failed (disk full?) — cells completed "
                "past this point are unrecorded and uncached; fix the volume "
                "and rerun"));
          }
        }
      }
      ++cells_finished;
      if (options.progress != nullptr) {
        // Compose the whole line off-stream (std::to_chars for the float:
        // locale-independent, and the shared stream's flags stay
        // untouched).
        progress_pending += '[';
        progress_pending += std::to_string(cells_finished);
        progress_pending += '/';
        progress_pending += std::to_string(mine.size());
        progress_pending += "] ";
        progress_pending += out.label;
        if (!recordable) {
          // No result to show: the record holds default-constructed runs.
          progress_pending += " FAILED\n";
        } else {
          progress_pending += " capture=";
          progress_pending += std::to_string(record.capture_successes);
          progress_pending += '/';
          progress_pending += std::to_string(record.capture_trials);
          if (hit) {
            progress_pending += " (cached)\n";
          } else {
            char wall[32];
            const auto [end, ec] =
                std::to_chars(wall, wall + sizeof(wall) - 1, elapsed,
                              std::chars_format::fixed, 1);
            *(ec == std::errc() ? end : wall) = '\0';
            progress_pending += " (";
            progress_pending += wall;
            progress_pending += "s)\n";
          }
        }
        const Clock::time_point now = Clock::now();
        if (cells_finished == mine.size() ||
            seconds_between(progress_last_flush, now) * 1000.0 >=
                static_cast<double>(options.progress_interval_ms)) {
          *options.progress << progress_pending;
          options.progress->flush();
          progress_pending.clear();
          progress_last_flush = now;
        }
      }
    }
    if (options.cache != nullptr && !hit && recordable && recorded) {
      // Store failures are non-fatal (counted in the cache's stats): the
      // sweep still holds the computed result.
      const ExperimentConfig& config = cells[out.index].config;
      options.cache->store(make_cell_cache_key(config, out.cell_seed,
                                               options.deterministic_timing),
                           record);
    }
  };

  // Consult the result cache BEFORE any run is scheduled: a validated hit
  // skips the cell entirely (not even its topology is built) and
  // completes right here, so hit records precede every computed one in
  // the stream, exactly as before any worker runs.
  // A failed stream write stops both this probe and the scheduling below.
  std::vector<char> cached(mine.size(), 0);
  if (options.cache != nullptr) {
    for (std::size_t m = 0; m < mine.size() && !stream_failed.load(); ++m) {
      const SweepCell& cell = cells[mine[m]];
      std::optional<SweepJsonCell> hit = options.cache->lookup(
          make_cell_cache_key(cell.config, cell_seeds[m],
                              options.deterministic_timing));
      if (!hit) {
        continue;
      }
      SweepCellResult& out = sweep.cells[m];
      // Graft THIS sweep's grid position onto the stored record: the key
      // pins the experiment's identity, not where the cell sits in the
      // current grid or how its axis labels are spelled.
      hit->index = out.index;
      hit->label = out.label;
      hit->coordinates = out.coordinates;
      hit->cell_seed = out.cell_seed;
      hit->runs = out.runs;
      hit->has_config = true;
      hit->config_topology = out.config_topology;
      hit->config_protocol = out.config_protocol;
      hit->config_attacker = out.config_attacker;
      hit->config_radio = out.config_radio;
      // The stored wall clock (the ORIGINAL compute time — zero under
      // deterministic timing, whose records live under a separate key)
      // rides along unchanged.
      out.wall_seconds = hit->wall_seconds;
      out.record_perf = hit->has_perf;
      out.cached = std::move(hit);
      cached[m] = 1;
      complete(m, /*recordable=*/true, /*elapsed=*/0.0);
    }
  }

  // Work is scheduled in CELL-granular slices, not one task per run: a
  // cell's slice executes consecutive seeds back-to-back against the
  // cell's shared RunBatch (warm topology + hoisted per-run state). When
  // live cells outnumber workers, one slice per cell maximises batch
  // locality; when workers outnumber cells (a short grid on a wide
  // machine), each cell's seed range splits across enough slices to keep
  // every worker busy. Either way seeds, results and documents are
  // bit-identical — only the grouping changes.
  std::size_t live_cells = 0;
  for (std::size_t m = 0; m < mine.size(); ++m) {
    live_cells += cached[m] == 0 ? 1 : 0;
  }
  const int threads = pool.thread_count();

  for (std::size_t m = 0; m < mine.size() && !stream_failed.load(); ++m) {
    if (cached[m] != 0) {
      continue;
    }
    const SweepCell& cell = cells[mine[m]];
    const std::uint64_t cell_seed = cell_seeds[m];
    const int runs = cell.config.runs;

    int slices = 1;
    if (live_cells < static_cast<std::size_t>(threads)) {
      const auto live = static_cast<int>(live_cells);
      slices = std::min(runs, (threads + live - 1) / live);
    }
    const int per_slice = (runs + slices - 1) / slices;
    // ceil(runs / per_slice) actual slices (can be fewer than `slices`).
    const int slice_count = (runs + per_slice - 1) / per_slice;

    progress[m].runs.resize(static_cast<std::size_t>(runs));
    progress[m].remaining.store(slice_count);

    for (int first = 0; first < runs; first += per_slice) {
      const int last = std::min(first + per_slice, runs);
      pool.submit([&, m, first, last, cell_seed, &cell = cells[mine[m]]] {
        CellProgress& state = progress[m];
        if (!state.started_set.exchange(true)) {
          state.started = Clock::now();
        }
        try {
          if (stream_failed.load(std::memory_order_relaxed)) {
            state.failed.store(true);
          } else {
            // First worker on the cell materialises its topology and
            // hoists the batch state. A build failure is captured as an
            // exception_ptr rather than thrown out of the callable: the
            // call_once then completes (its synchronisation publishes
            // build_error to every slice, which rethrows below) and the
            // once-guard is never left locked — TSan's pthread_once
            // interceptor does not release the guard on unwind, so a
            // throwing callable would deadlock every waiting slice.
            std::call_once(state.build_topology, [&state, &cell] {
              try {
                state.topology = cell.config.topology.build();
                state.batch.emplace(cell.config, state.topology);
                // slpdas-lint: allow(bare-catch): rethrown via exception_ptr below with full type; catching everything keeps the once-guard released
              } catch (...) {
                state.build_error = std::current_exception();
              }
            });
            if (state.build_error) {
              std::rethrow_exception(state.build_error);
            }
            state.batch->run_range(
                cell_seed, first, last,
                state.runs.data() + static_cast<std::size_t>(first));
          }
        } catch (const std::exception& error) {
          // Name the failing cell: a sweep can run thousands of them, and
          // "cell X failed because Y" is the difference between a fixable
          // setup error and a mystery.
          state.failed.store(true);
          const std::scoped_lock lock(mutex);
          if (!first_error) {
            first_error = std::make_exception_ptr(std::runtime_error(
                "sweep cell '" + cell.label + "': " + error.what()));
          }
          // slpdas-lint: allow(bare-catch): worker boundary; typed handler above names every std::exception, an escaped exception would kill the pool
        } catch (...) {
          state.failed.store(true);
          const std::scoped_lock lock(mutex);
          if (!first_error) {
            first_error = std::make_exception_ptr(std::runtime_error(
                "sweep cell '" + cell.label +
                "': unknown exception in worker"));
          }
        }
        {
          const std::scoped_lock lock(mutex);
          worker_ids.insert(std::this_thread::get_id());
        }
        if (state.remaining.fetch_sub(1) == 1) {
          // Last slice of this cell: aggregate in run-index order so the
          // result is independent of scheduling, then complete it. The
          // cell's batch and topology are done with — release them (batch
          // first: it references the topology) so sweep memory tracks the
          // cells in flight, not every cell ever finished.
          state.batch.reset();
          state.topology = wsn::Topology{};
          const double elapsed = seconds_between(state.started, Clock::now());
          SweepCellResult& out = sweep.cells[m];
          out.result = aggregate_runs(state.runs, cell.config.check_schedules);
          out.wall_seconds = options.deterministic_timing ? 0.0 : elapsed;
          // Perf telemetry rides along only when wall clocks are real;
          // deterministic documents stay byte-identical to the
          // pre-telemetry schema.
          out.record_perf = !options.deterministic_timing;
          complete(m, !state.failed.load(), elapsed);
        }
      });
    }
  }

  pool.wait_idle();
  // Flush buffered progress BEFORE rethrowing: the cells that completed
  // ahead of a failure are exactly the diagnostic context the user needs.
  if (!progress_pending.empty() && options.progress != nullptr) {
    *options.progress << progress_pending;
    options.progress->flush();
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
  sweep.distinct_worker_threads =
      options.deterministic_timing ? 0 : static_cast<int>(worker_ids.size());
  sweep.wall_seconds = options.deterministic_timing
                           ? 0.0
                           : seconds_between(sweep_start, Clock::now());
  return sweep;
}

// ---------------------------------------------------------------------------
// JSON writing
// ---------------------------------------------------------------------------

namespace {

constexpr std::string_view kSchemaV2 = "slpdas.sweep.v2";
constexpr std::string_view kCellSchemaV1 = "slpdas.cell.v1";

/// Doubles print with max_digits10 so the round-trip is exact; NaN and
/// infinities (empty-stat min/max) serialise as null.
void write_double(std::ostream& out, double value) {
  if (std::isfinite(value)) {
    out << std::setprecision(std::numeric_limits<double>::max_digits10)
        << value;
  } else {
    out << "null";
  }
}

void write_string(std::ostream& out, std::string_view text) {
  detail::write_json_string(out, text);
}

void write_stats(std::ostream& out, const SweepJsonStats& stats) {
  out << "{\"count\": " << stats.count << ", \"mean\": ";
  write_double(out, stats.mean);
  out << ", \"stddev\": ";
  write_double(out, stats.stddev);
  out << ", \"min\": ";
  write_double(out, stats.min);
  out << ", \"max\": ";
  write_double(out, stats.max);
  out << '}';
}

SweepJsonStats to_json_stats(const metrics::RunningStats& stats) {
  SweepJsonStats out;
  out.count = stats.count();
  out.mean = stats.mean();
  out.stddev = stats.stddev();
  out.min = stats.min();
  out.max = stats.max();
  return out;
}

SweepJsonCell to_json_cell(const SweepCellResult& cell) {
  if (cell.cached) {
    // Cache hit: the stored record (grid position already grafted on by
    // run_sweep) IS the cell's serialised form — re-deriving it from
    // `result` would fabricate stats from a default-constructed
    // ExperimentResult.
    return *cell.cached;
  }
  SweepJsonCell out;
  out.index = cell.index;
  out.label = cell.label;
  out.coordinates = cell.coordinates;
  out.cell_seed = cell.cell_seed;
  out.runs = cell.runs;
  out.has_config = true;
  out.config_topology = cell.config_topology;
  out.config_protocol = cell.config_protocol;
  out.config_attacker = cell.config_attacker;
  out.config_radio = cell.config_radio;
  const ExperimentResult& r = cell.result;
  out.capture_trials = r.capture.trials();
  out.capture_successes = r.capture.successes();
  out.capture_ratio = r.capture.ratio();
  const auto [low, high] = r.capture.wilson95();
  out.capture_wilson95_low = low;
  out.capture_wilson95_high = high;
  out.capture_time_s = to_json_stats(r.capture_time_s);
  out.delivery_ratio = to_json_stats(r.delivery_ratio);
  out.delivery_latency_s = to_json_stats(r.delivery_latency_s);
  out.control_messages_per_node = to_json_stats(r.control_messages_per_node);
  out.normal_messages_per_node = to_json_stats(r.normal_messages_per_node);
  out.attacker_moves = to_json_stats(r.attacker_moves);
  out.slot_band_span = to_json_stats(r.slot_band_span);
  out.schedule_density = to_json_stats(r.schedule_density);
  out.schedule_incomplete_runs = r.schedule_incomplete_runs;
  out.weak_das_failures = r.weak_das_failures;
  out.strong_das_failures = r.strong_das_failures;
  out.wall_seconds = cell.wall_seconds;
  out.has_perf = cell.record_perf;
  if (out.has_perf) {
    out.perf_events = r.events_executed;
    out.perf_deliveries = r.deliveries;
    out.perf_timer_fires = r.timer_fires;
    out.perf_events_per_sec =
        cell.wall_seconds > 0.0
            ? static_cast<double>(r.events_executed) / cell.wall_seconds
            : 0.0;
  }
  return out;
}

/// The per-cell stats blocks, in serialisation order.
using StatsField = std::pair<const char*, SweepJsonStats SweepJsonCell::*>;
/// Writes a cell's fields (everything between its braces). `sep`
/// separates fields — ",\n      " inside the indented sweep document,
/// ", " in a single-line cell-stream record — so both writers share ONE
/// field list and can never drift apart from each other or from
/// parse_cell: the byte-stable round trip the cache and the fleet's done
/// records rely on.
void write_cell_fields(std::ostream& out, const SweepJsonCell& cell,
                       const char* sep);

constexpr StatsField kStatsFields[] = {
    {"capture_time_s", &SweepJsonCell::capture_time_s},
    {"delivery_ratio", &SweepJsonCell::delivery_ratio},
    {"delivery_latency_s", &SweepJsonCell::delivery_latency_s},
    {"control_messages_per_node", &SweepJsonCell::control_messages_per_node},
    {"normal_messages_per_node", &SweepJsonCell::normal_messages_per_node},
    {"attacker_moves", &SweepJsonCell::attacker_moves},
    {"slot_band_span", &SweepJsonCell::slot_band_span},
    {"schedule_density", &SweepJsonCell::schedule_density},
};

void write_cell_fields(std::ostream& out, const SweepJsonCell& cell,
                       const char* sep) {
  out << "\"index\": " << cell.index << sep << "\"label\": ";
  write_string(out, cell.label);
  out << sep << "\"coordinates\": {";
  for (std::size_t i = 0; i < cell.coordinates.size(); ++i) {
    out << (i == 0 ? "" : ", ");
    write_string(out, cell.coordinates[i].first);
    out << ": ";
    write_string(out, cell.coordinates[i].second);
  }
  out << '}' << sep << "\"cell_seed\": " << cell.cell_seed << sep
      << "\"runs\": " << cell.runs;
  if (cell.has_config) {
    // Every document this library writes carries the block (the specs
    // are part of the experiment's identity, so unlike perf it is present
    // under deterministic timing too); only hand-built cells without
    // specs lack it.
    out << sep << "\"config\": {\"topology\": ";
    write_string(out, cell.config_topology);
    out << ", \"protocol\": ";
    write_string(out, cell.config_protocol);
    out << ", \"attacker\": ";
    write_string(out, cell.config_attacker);
    out << ", \"radio\": ";
    write_string(out, cell.config_radio);
    out << '}';
  }
  out << sep << "\"capture\": {\"trials\": " << cell.capture_trials
      << ", \"successes\": " << cell.capture_successes << ", \"ratio\": ";
  write_double(out, cell.capture_ratio);
  out << ", \"wilson95\": [";
  write_double(out, cell.capture_wilson95_low);
  out << ", ";
  write_double(out, cell.capture_wilson95_high);
  out << "]}";
  for (const auto& [key, member] : kStatsFields) {
    out << sep << "\"" << key << "\": ";
    write_stats(out, cell.*member);
  }
  out << sep << "\"schedule_incomplete_runs\": "
      << cell.schedule_incomplete_runs << sep
      << "\"weak_das_failures\": " << cell.weak_das_failures << sep
      << "\"strong_das_failures\": " << cell.strong_das_failures << sep
      << "\"wall_seconds\": ";
  write_double(out, cell.wall_seconds);
  if (cell.has_perf) {
    // Real-clock runs only: deterministic documents omit the block so
    // their bytes stay invariant (merge/stream rely on that).
    out << sep << "\"perf\": {\"events\": " << cell.perf_events
        << ", \"deliveries\": " << cell.perf_deliveries
        << ", \"timer_fires\": " << cell.perf_timer_fires
        << ", \"events_per_sec\": ";
    write_double(out, cell.perf_events_per_sec);
    out << '}';
  }
}

}  // namespace

const std::string* SweepJsonCell::coordinate(std::string_view name) const {
  for (const auto& [axis, value] : coordinates) {
    if (axis == name) {
      return &value;
    }
  }
  return nullptr;
}

SweepJson to_sweep_json(const SweepResult& result, std::string_view name) {
  SweepJson document;
  document.schema = std::string(kSchemaV2);
  document.name = std::string(name);
  document.base_seed = result.base_seed;
  document.grid_hash = result.grid_hash;
  document.shard_index = result.shard_index;
  document.shard_count = result.shard_count;
  // Hand-rolled SweepResults (tests) may leave cells_total unset.
  document.cells_total = result.cells_total != 0 || result.cells.empty()
                             ? result.cells_total
                             : result.cells.size();
  document.threads = result.threads;
  document.distinct_worker_threads = result.distinct_worker_threads;
  document.wall_seconds = result.wall_seconds;
  document.cells.reserve(result.cells.size());
  for (const SweepCellResult& cell : result.cells) {
    document.cells.push_back(to_json_cell(cell));
  }
  return document;
}

void write_sweep_json(std::ostream& out, const SweepJson& document) {
  // Restore the caller's formatting on exit; write_double/write_string
  // adjust precision, flags and fill along the way.
  const auto saved_flags = out.flags();
  const auto saved_precision = out.precision();
  const auto saved_fill = out.fill();
  out << "{\n  \"schema\": ";
  write_string(out, kSchemaV2);
  out << ",\n  \"name\": ";
  write_string(out, document.name);
  out << ",\n  \"base_seed\": " << document.base_seed
      << ",\n  \"grid_hash\": " << document.grid_hash
      << ",\n  \"shard\": {\"index\": " << document.shard_index
      << ", \"count\": " << document.shard_count
      << ", \"cells_total\": " << document.cells_total << '}'
      << ",\n  \"threads\": " << document.threads
      << ",\n  \"distinct_worker_threads\": "
      << document.distinct_worker_threads << ",\n  \"wall_seconds\": ";
  write_double(out, document.wall_seconds);
  out << ",\n  \"cells\": [";
  for (std::size_t c = 0; c < document.cells.size(); ++c) {
    const SweepJsonCell& cell = document.cells[c];
    out << (c == 0 ? "\n" : ",\n") << "    {\n      ";
    write_cell_fields(out, cell, ",\n      ");
    out << "\n    }";
  }
  out << (document.cells.empty() ? "]" : "\n  ]") << "\n}\n";
  out.flags(saved_flags);
  out.precision(saved_precision);
  out.fill(saved_fill);
}

// ---------------------------------------------------------------------------
// JSON reading (shared strict parser: src/core/json.hpp)
// ---------------------------------------------------------------------------

namespace {

using detail::JsonParser;

SweepJsonStats parse_stats(const JsonParser::Value& value) {
  SweepJsonStats stats;
  stats.count = value.at("count").as_u64();
  stats.mean = value.at("mean").as_number();
  stats.stddev = value.at("stddev").as_number();
  stats.min = value.at("min").as_number();
  stats.max = value.at("max").as_number();
  return stats;
}

}  // namespace

namespace detail {

// One cell object — shared between the document reader, the cell-stream
// reader and the result cache (whose records all carry the same field
// set). Declared in cell_record.hpp.
SweepJsonCell parse_cell_json(const JsonParser::Value& cell_value) {
  SweepJsonCell cell;
  cell.index = cell_value.at("index").as_u64();
  cell.label = cell_value.at("label").as_string();
  for (const auto& [key, value] : cell_value.at("coordinates").as_object()) {
    cell.coordinates.emplace_back(key, value.as_string());
  }
  cell.cell_seed = cell_value.at("cell_seed").as_u64();
  cell.runs = cell_value.at("runs").as_int();
  if (const JsonParser::Value* config = cell_value.find("config")) {
    // Optional: absent only from hand-built cells (has_config false).
    cell.has_config = true;
    cell.config_topology = config->at("topology").as_string();
    cell.config_protocol = config->at("protocol").as_string();
    cell.config_attacker = config->at("attacker").as_string();
    cell.config_radio = config->at("radio").as_string();
  }
  const JsonParser::Value& capture = cell_value.at("capture");
  cell.capture_trials = capture.at("trials").as_u64();
  cell.capture_successes = capture.at("successes").as_u64();
  cell.capture_ratio = capture.at("ratio").as_number();
  const JsonParser::Array& wilson = capture.at("wilson95").as_array();
  if (wilson.size() != 2) {
    throw std::runtime_error("sweep json: wilson95 must have two entries");
  }
  cell.capture_wilson95_low = wilson[0].as_number();
  cell.capture_wilson95_high = wilson[1].as_number();
  cell.capture_time_s = parse_stats(cell_value.at("capture_time_s"));
  cell.delivery_ratio = parse_stats(cell_value.at("delivery_ratio"));
  cell.delivery_latency_s = parse_stats(cell_value.at("delivery_latency_s"));
  cell.control_messages_per_node =
      parse_stats(cell_value.at("control_messages_per_node"));
  cell.normal_messages_per_node =
      parse_stats(cell_value.at("normal_messages_per_node"));
  cell.attacker_moves = parse_stats(cell_value.at("attacker_moves"));
  cell.slot_band_span = parse_stats(cell_value.at("slot_band_span"));
  cell.schedule_density = parse_stats(cell_value.at("schedule_density"));
  cell.schedule_incomplete_runs =
      cell_value.at("schedule_incomplete_runs").as_int();
  cell.weak_das_failures = cell_value.at("weak_das_failures").as_int();
  cell.strong_das_failures = cell_value.at("strong_das_failures").as_int();
  cell.wall_seconds = cell_value.at("wall_seconds").as_number();
  if (const JsonParser::Value* perf = cell_value.find("perf")) {
    // Optional: present only in real-clock documents (never under
    // --deterministic).
    cell.has_perf = true;
    cell.perf_events = perf->at("events").as_u64();
    cell.perf_deliveries = perf->at("deliveries").as_u64();
    cell.perf_timer_fires = perf->at("timer_fires").as_u64();
    cell.perf_events_per_sec = perf->at("events_per_sec").as_number();
  }
  return cell;
}

}  // namespace detail

SweepJson read_sweep_json(std::istream& in) {
  JsonParser parser(in);
  const JsonParser::Value root = parser.parse();

  SweepJson document;
  document.schema = root.at("schema").as_string();
  if (document.schema != kSchemaV2) {
    throw std::runtime_error("sweep json: unknown schema '" + document.schema +
                             "'");
  }
  document.name = root.at("name").as_string();
  document.base_seed = root.at("base_seed").as_u64();
  document.grid_hash = root.at("grid_hash").as_u64();
  const JsonParser::Value& shard = root.at("shard");
  document.shard_index = shard.at("index").as_int();
  document.shard_count = shard.at("count").as_int();
  document.cells_total = shard.at("cells_total").as_u64();
  document.threads = root.at("threads").as_int();
  document.distinct_worker_threads =
      root.at("distinct_worker_threads").as_int();
  document.wall_seconds = root.at("wall_seconds").as_number();

  for (const JsonParser::Value& cell_value : root.at("cells").as_array()) {
    document.cells.push_back(detail::parse_cell_json(cell_value));
  }
  return document;
}

// ---------------------------------------------------------------------------
// Sweep identity and the one fold
// ---------------------------------------------------------------------------

namespace detail {

SweepIdentity identity_of(const CellStreamHeader& header) {
  return {header.name,        header.base_seed,     header.grid_hash,
          header.cells_total, header.deterministic, header.shard_index,
          header.shard_count};
}

SweepIdentity identity_of(const SweepJson& document) {
  return {document.name,        document.base_seed,
          document.grid_hash,   document.cells_total,
          /*deterministic=*/false, document.shard_index,
          document.shard_count};
}

std::string identity_mismatch(const SweepIdentity& have,
                              const SweepIdentity& want) {
  const auto differs = [](const char* field, const std::string& a,
                          const std::string& b) {
    return std::string(field) + " " + a + " vs " + b;
  };
  if (have.name != want.name) {
    return differs("name", "'" + have.name + "'", "'" + want.name + "'");
  }
  if (have.base_seed != want.base_seed) {
    // Mixed seeds would silently break the common-random-numbers pairing
    // between cells that came from different inputs.
    return differs("base_seed", std::to_string(have.base_seed),
                   std::to_string(want.base_seed));
  }
  if (have.grid_hash != want.grid_hash) {
    // Different full-grid fingerprints: the inputs came from different
    // grids (another --sd, --runs or axis value); combining them would
    // fabricate an experiment nobody ran.
    return differs("grid_hash", std::to_string(have.grid_hash),
                   std::to_string(want.grid_hash));
  }
  if (have.cells_total != want.cells_total) {
    return differs("cells_total", std::to_string(have.cells_total),
                   std::to_string(want.cells_total));
  }
  if (have.deterministic != want.deterministic) {
    // Mixing zeroed and real wall clocks in one document would silently
    // break the bit-reproducibility contract.
    return differs("deterministic", have.deterministic ? "true" : "false",
                   want.deterministic ? "true" : "false");
  }
  if (have.shard_index != want.shard_index ||
      have.shard_count != want.shard_count) {
    return differs("shard",
                   std::to_string(have.shard_index) + "/" +
                       std::to_string(have.shard_count),
                   std::to_string(want.shard_index) + "/" +
                       std::to_string(want.shard_count));
  }
  return {};
}

SweepJson fold_sweep(const SweepIdentity& expected,
                     std::vector<FoldInput> inputs,
                     std::string_view context) {
  const std::string where(context);
  if (expected.shard_count < 1 || expected.shard_index < 0 ||
      expected.shard_index >= expected.shard_count) {
    throw std::runtime_error(where + ": invalid shard spec " +
                             std::to_string(expected.shard_index) + "/" +
                             std::to_string(expected.shard_count));
  }
  SweepJson document;
  document.schema = std::string(kSchemaV2);
  document.name = expected.name;
  document.base_seed = expected.base_seed;
  document.grid_hash = expected.grid_hash;
  document.shard_index = expected.shard_index;
  document.shard_count = expected.shard_count;
  document.cells_total = expected.cells_total;
  for (FoldInput& input : inputs) {
    const std::string mismatch = identity_mismatch(input.identity, expected);
    if (!mismatch.empty()) {
      throw std::runtime_error(where + ": inputs belong to different sweeps (" +
                               mismatch + ")");
    }
    std::move(input.cells.begin(), input.cells.end(),
              std::back_inserter(document.cells));
  }
  // Records arrive in completion (or shard) order; the document wants
  // grid order.
  std::sort(document.cells.begin(), document.cells.end(),
            [](const SweepJsonCell& a, const SweepJsonCell& b) {
              return a.index < b.index;
            });
  const auto stride = static_cast<std::uint64_t>(expected.shard_count);
  std::uint64_t next = static_cast<std::uint64_t>(expected.shard_index);
  const auto missing = [&where](std::uint64_t index) {
    return std::runtime_error(
        where + ": cell " + std::to_string(index) +
        " has no record — complete the run (resume it, or supply every "
        "shard) before folding");
  };
  for (const SweepJsonCell& cell : document.cells) {
    if (next < expected.cells_total && cell.index == next) {
      document.wall_seconds += cell.wall_seconds;
      next += stride;
      continue;
    }
    if (next < expected.cells_total && cell.index > next) {
      throw missing(next);
    }
    throw std::runtime_error(
        where + ": record for cell " + std::to_string(cell.index) +
        " is a duplicate or lies outside shard " +
        std::to_string(expected.shard_index) + "/" +
        std::to_string(expected.shard_count) + " of the " +
        std::to_string(expected.cells_total) + "-cell grid");
  }
  if (next < expected.cells_total) {
    throw missing(next);
  }
  return document;
}

}  // namespace detail

SweepJson merge_sweep_shards(std::vector<SweepJson> shards) {
  if (shards.empty()) {
    throw std::runtime_error("merge: no shard documents");
  }
  const int count = static_cast<int>(shards.size());
  // Every shard is a slice of the same full (0-of-1) sweep; the shard set
  // itself must name each of `count` slices exactly once.
  detail::SweepIdentity expected = detail::identity_of(shards.front());
  expected.shard_index = 0;
  expected.shard_count = 1;
  std::set<int> seen_indices;
  std::vector<detail::FoldInput> inputs;
  int threads = 0;
  int distinct_worker_threads = 0;
  double wall_seconds = 0.0;
  for (SweepJson& shard : shards) {
    if (shard.shard_count != count) {
      throw std::runtime_error(
          "merge: document expects " + std::to_string(shard.shard_count) +
          " shard(s) but " + std::to_string(count) + " were given");
    }
    if (shard.shard_index < 0 || shard.shard_index >= count ||
        !seen_indices.insert(shard.shard_index).second) {
      throw std::runtime_error("merge: shard index " +
                               std::to_string(shard.shard_index) +
                               " is out of range or given twice");
    }
    threads = std::max(threads, shard.threads);
    distinct_worker_threads =
        std::max(distinct_worker_threads, shard.distinct_worker_threads);
    wall_seconds += shard.wall_seconds;
    detail::FoldInput& input = inputs.emplace_back();
    input.identity = detail::identity_of(shard);
    input.identity.shard_index = 0;
    input.identity.shard_count = 1;
    input.cells = std::move(shard.cells);
  }
  SweepJson merged = detail::fold_sweep(expected, std::move(inputs), "merge");
  merged.threads = threads;
  merged.distinct_worker_threads = distinct_worker_threads;
  // The shards' own clocks (sweep wall time), not the cell sum.
  merged.wall_seconds = wall_seconds;
  return merged;
}

// ---------------------------------------------------------------------------
// Cell streams ("slpdas.cell.v1")
// ---------------------------------------------------------------------------

void write_cell_stream_header(std::ostream& out,
                              const CellStreamHeader& header) {
  const auto saved_flags = out.flags();
  const auto saved_fill = out.fill();
  out << "{\"schema\": ";
  write_string(out, kCellSchemaV1);
  out << ", \"name\": ";
  write_string(out, header.name);
  out << ", \"base_seed\": " << header.base_seed
      << ", \"grid_hash\": " << header.grid_hash
      << ", \"shard\": {\"index\": " << header.shard_index
      << ", \"count\": " << header.shard_count
      << ", \"cells_total\": " << header.cells_total
      << "}, \"deterministic\": "
      << (header.deterministic ? "true" : "false")
      << ", \"threads\": " << header.threads << "}\n";
  out.flags(saved_flags);
  out.fill(saved_fill);
}

void write_cell_stream_record(std::ostream& out, const SweepJsonCell& cell) {
  const auto saved_flags = out.flags();
  const auto saved_precision = out.precision();
  const auto saved_fill = out.fill();
  out << '{';
  write_cell_fields(out, cell, ", ");
  out << "}\n";
  out.flags(saved_flags);
  out.precision(saved_precision);
  out.fill(saved_fill);
}

CellStream read_cell_stream(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  CellStream stream;
  bool have_header = false;
  std::set<std::uint64_t> seen;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t newline = text.find('\n', pos);
    if (newline == std::string::npos) {
      // No terminating newline: a torn tail from a killed writer (records
      // are single flushed writes, so only the LAST line can be torn).
      break;
    }
    const std::string line = text.substr(pos, newline - pos);
    pos = newline + 1;
    if (line.empty()) {
      continue;
    }
    std::istringstream line_in(line);
    JsonParser parser(line_in);
    const JsonParser::Value root = parser.parse();
    if (!have_header) {
      stream.header.schema = root.at("schema").as_string();
      if (stream.header.schema != kCellSchemaV1) {
        throw std::runtime_error("cell stream: unknown schema '" +
                                 stream.header.schema + "'");
      }
      stream.header.name = root.at("name").as_string();
      stream.header.base_seed = root.at("base_seed").as_u64();
      stream.header.grid_hash = root.at("grid_hash").as_u64();
      const JsonParser::Value& shard = root.at("shard");
      stream.header.shard_index = shard.at("index").as_int();
      stream.header.shard_count = shard.at("count").as_int();
      stream.header.cells_total = shard.at("cells_total").as_u64();
      if (stream.header.shard_count < 1 || stream.header.shard_index < 0 ||
          stream.header.shard_index >= stream.header.shard_count) {
        throw std::runtime_error("cell stream: invalid shard spec " +
                                 std::to_string(stream.header.shard_index) +
                                 "/" +
                                 std::to_string(stream.header.shard_count));
      }
      stream.header.deterministic = root.at("deterministic").as_bool();
      stream.header.threads = root.at("threads").as_int();
      have_header = true;
      continue;
    }
    SweepJsonCell cell = detail::parse_cell_json(root);
    if (cell.index >= stream.header.cells_total) {
      throw std::runtime_error("cell stream: cell index " +
                               std::to_string(cell.index) +
                               " lies outside the grid");
    }
    if (cell.index % static_cast<std::uint64_t>(stream.header.shard_count) !=
        static_cast<std::uint64_t>(stream.header.shard_index)) {
      throw std::runtime_error(
          "cell stream: cell " + std::to_string(cell.index) +
          " does not belong to shard " +
          std::to_string(stream.header.shard_index) + "/" +
          std::to_string(stream.header.shard_count));
    }
    if (!seen.insert(cell.index).second) {
      throw std::runtime_error("cell stream: duplicate record for cell " +
                               std::to_string(cell.index));
    }
    stream.cells.push_back(std::move(cell));
  }
  if (!have_header) {
    throw std::runtime_error("cell stream: missing header record");
  }
  return stream;
}

SweepJson fold_cell_stream(const CellStream& stream) {
  const detail::SweepIdentity identity = detail::identity_of(stream.header);
  std::vector<detail::FoldInput> inputs;
  inputs.push_back({identity, stream.cells});
  SweepJson document =
      detail::fold_sweep(identity, std::move(inputs), "cell stream");
  document.threads = stream.header.threads;
  return document;
}

}  // namespace slpdas::core
