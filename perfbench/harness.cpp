// slpdas_perfbench: the repository benchmark's harness.
//
//   slpdas_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    --workdir DIR [--tiny] [--expect-fingerprint HEX]
//                    [--spans-out FILE]
//
// Drives one named workload (workloads.hpp) through the same public calls
// the slpdas_bench CLI uses — core::run_sweep on a shared ThreadPool, the
// CellCache, the cell-stream writer/reader/fold and the sweep-document
// writer/reader — and prints, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
// Load model: closed loop. One sweep repetition runs at a time and the
// next starts when it finishes; every repetition uses the workload seed as
// the sweep base_seed, so every repetition computes the same results.
//
// --trace 0 (end-to-end metrics, tracing off):
//   setup_s        median over repetitions of the seed-independent set-up
//                  of every cell: TopologySpec::build + RunBatch
//                  construction (PhasePrefix::capture) + one RunBatch::Fork
//                  construction, single-threaded.
//   runs_per_s     median over timed repetitions of seeded runs delivered
//                  (computed or served from the cache) / repetition wall
//                  time; a repetition is run_sweep plus the record steps.
//   peak_rss_mb    getrusage peak resident set after the warm-up and the
//                  first timed repetition, before set-up sampling starts.
//   cells_ok_ratio 1 - failed_ratio; failed_ratio (cells that threw or
//                  failed a check / cells attempted) is printed on the info
//                  line, and is 0 on a correct build, which is why the
//                  declared metric is its complement.
//
// --trace 1 (per-layer metrics): a single-threaded pass over the same cells
// that times each call into the library as a span (tracer.hpp), run twice
// per repetition — once with tracing off, once on — so the tracing overhead
// is measured, not assumed. Self times per layer sum to the traced pass's
// wall time up to the unattributed share, which must stay below
// kReconcileTolerance.
//
// Correctness (both modes, counted in `failed`, exit status 1):
//   * every seed's phase-split run equals RunBatch::run_one(seed), field for
//     field and bit for bit;
//   * every timed (multi-threaded) and traced (single-threaded) document
//     equals the one aggregate_runs builds from those runs, clocks aside —
//     so results and event counts repeat exactly across repetitions and
//     thread counts;
//   * every count metric repeats exactly across traced repetitions;
//   * with --expect-fingerprint, the FNV-1a fingerprint of that document's
//     results (its per-cell event counts aside) matches the recorded one.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "slpdas/attacker/runtime.hpp"
#include "slpdas/core/cell_cache.hpp"
#include "slpdas/core/experiment.hpp"
#include "slpdas/core/phase_prefix.hpp"
#include "slpdas/core/run_batch.hpp"
#include "slpdas/core/sweep.hpp"
#include "slpdas/core/thread_pool.hpp"
#include "slpdas/das/protocol.hpp"
#include "slpdas/mac/schedule_io.hpp"
#include "slpdas/phantom/phantom_routing.hpp"
#include "slpdas/rng.hpp"
#include "slpdas/sim/simulator.hpp"
#include "slpdas/slp/slp_das.hpp"
#include "slpdas/verify/das_checker.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace core = slpdas::core;
namespace fs = std::filesystem;
namespace sim = slpdas::sim;
namespace wsn = slpdas::wsn;

/// Largest |traced wall - sum of layer self times| / traced wall accepted.
constexpr double kReconcileTolerance = 0.05;
/// Share of the measuring time spent sampling set-up (--trace 0).
constexpr double kSetupShare = 0.15;
/// Timed repetitions after which the peak resident set is read (--trace 0).
constexpr std::size_t kRssRepetitions = 2;

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

/// Nearest-rank percentile (q in [0, 1]) of `values`.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size(), std::max<std::size_t>(rank, 1)) - 1];
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex16(std::uint64_t value) {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << value;
  return out.str();
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000U, nullptr) >= 0x80000004U) {
    unsigned int regs[12] = {};
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[sizeof(regs) + 1] = {};
    std::memcpy(brand, regs, sizeof(regs));
    std::string model(brand);
    model.erase(0, model.find_first_not_of(' '));
    return model;
  }
#endif
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Fixes glibc's mmap and trim thresholds, so freed heap memory stays
/// mapped and is reused. With the defaults, glibc's dynamic mmap threshold
/// sends a run's large allocations either to fresh mmap pages or to the
/// reused heap, depending on the order of earlier frees; set-up time then
/// flips between two modes from one process to the next (about 2x on
/// udisk_dense), whatever the library's own work.
void pin_allocator() {
#if defined(__GLIBC__)
  constexpr int kMmapThresholdMax = 32 << 20;  // glibc's 64-bit ceiling
  if (mallopt(M_MMAP_THRESHOLD, kMmapThresholdMax) != 1 ||
      mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max()) != 1) {
    throw std::runtime_error("mallopt refused the benchmark's thresholds");
  }
#endif
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Field-for-field, bit-for-bit equality of two run results.
bool same_result(const core::RunResult& a, const core::RunResult& b) {
  return a.captured == b.captured &&
         a.capture_time_s.has_value() == b.capture_time_s.has_value() &&
         (!a.capture_time_s || same_bits(*a.capture_time_s, *b.capture_time_s)) &&
         a.safety_periods == b.safety_periods &&
         a.source_sink_distance == b.source_sink_distance &&
         a.schedule_complete == b.schedule_complete &&
         a.weak_das_ok == b.weak_das_ok && a.strong_das_ok == b.strong_das_ok &&
         a.schedule_slot_span == b.schedule_slot_span &&
         same_bits(a.schedule_density, b.schedule_density) &&
         same_bits(a.delivery_ratio, b.delivery_ratio) &&
         same_bits(a.delivery_latency_s, b.delivery_latency_s) &&
         same_bits(a.control_messages_per_node, b.control_messages_per_node) &&
         same_bits(a.normal_messages_per_node, b.normal_messages_per_node) &&
         a.attacker_moves == b.attacker_moves &&
         a.events_executed == b.events_executed &&
         a.deliveries == b.deliveries && a.timer_fires == b.timer_fires;
}

std::uint64_t cell_seed_of(const core::SweepCell& cell, std::uint64_t seed) {
  return core::derive_cell_seed(
      seed, cell.seed_label.empty() ? cell.label : cell.seed_label);
}

/// The grid position and canonical spec strings of a cell, exactly as
/// run_sweep fills them.
core::SweepCellResult cell_header(const core::SweepCell& cell,
                                  std::size_t index, std::uint64_t seed) {
  core::SweepCellResult out;
  out.index = index;
  out.label = cell.label;
  out.coordinates = cell.coordinates;
  out.cell_seed = cell_seed_of(cell, seed);
  out.runs = cell.config.runs;
  out.config_topology = cell.config.topology.to_string();
  out.config_protocol = core::format_protocol_spec(
      cell.config.protocol, cell.config.phantom_walk_length);
  out.config_attacker = cell.config.attacker.to_spec();
  out.config_radio = core::format_radio_spec(cell.config.radio,
                                             cell.config.loss_probability);
  return out;
}

core::SweepResult sweep_shell(const std::vector<core::SweepCell>& cells,
                              std::uint64_t seed, int threads) {
  core::SweepResult sweep;
  sweep.base_seed = seed;
  sweep.grid_hash = core::hash_sweep_grid(cells);
  sweep.cells_total = cells.size();
  sweep.threads = threads;
  return sweep;
}

/// A document's deterministic content: every clock and pool-size field
/// zeroed. Equal for every correct repetition at any thread count.
core::SweepJson without_clocks(core::SweepJson document) {
  document.threads = 0;
  document.distinct_worker_threads = 0;
  document.wall_seconds = 0.0;
  for (core::SweepJsonCell& cell : document.cells) {
    cell.wall_seconds = 0.0;
    cell.perf_events_per_sec = 0.0;
  }
  return document;
}

/// The experiment's results only: the clock-free document without the
/// per-cell "perf" block, as `--deterministic` writes it. Its fingerprint
/// survives a speed change that executes fewer events.
core::SweepJson results_only(core::SweepJson document) {
  for (core::SweepJsonCell& cell : document.cells) {
    cell.has_perf = false;
    cell.perf_events = 0;
    cell.perf_deliveries = 0;
    cell.perf_timer_fires = 0;
  }
  return document;
}

std::string cell_bytes(const core::SweepJsonCell& cell) {
  std::ostringstream out;
  core::write_cell_stream_record(out, cell);
  return out.str();
}

std::string document_bytes(const core::SweepJson& document) {
  std::ostringstream out;
  core::write_sweep_json(out, document);
  return out.str();
}

/// A document's clock-free content as FNV-1a hashes: one per cell, then
/// one of the whole document. Passes keep this rather than the document,
/// so the peak resident set does not grow with the repetition count.
struct Digest {
  std::vector<std::uint64_t> cells;
  std::uint64_t whole = 0;
};

Digest digest(const core::SweepJson& document) {
  const core::SweepJson plain = without_clocks(document);
  Digest out;
  for (const core::SweepJsonCell& cell : plain.cells) {
    out.cells.push_back(fnv1a(cell_bytes(cell)));
  }
  out.whole = fnv1a(document_bytes(plain));
  return out;
}

/// Number of cells of `actual` that differ from `expected`; a
/// whole-document mismatch with equal cells (seed, grid hash) counts as
/// one.
std::size_t count_mismatches(const Digest& expected, const Digest& actual) {
  if (actual.cells.size() != expected.cells.size()) {
    return std::max<std::size_t>(expected.cells.size(), 1);
  }
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < expected.cells.size(); ++i) {
    mismatched += expected.cells[i] == actual.cells[i] ? 0 : 1;
  }
  return mismatched == 0 && expected.whole != actual.whole ? 1 : mismatched;
}

// ---------------------------------------------------------------------------
// Work counters
// ---------------------------------------------------------------------------

/// Exact work counts of one pass. Pure functions of (cells, seed): any
/// drift between repetitions or thread counts is a failure, not noise.
struct Counts {
  std::uint64_t events = 0;
  std::uint64_t setup_events = 0;
  std::uint64_t timer_fires = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t broadcast_draws = 0;
  std::uint64_t das_hello = 0;
  std::uint64_t das_dissem = 0;
  std::uint64_t das_normal = 0;
  std::uint64_t slp_search = 0;
  std::uint64_t slp_change = 0;
  std::uint64_t phantom_hello = 0;
  std::uint64_t phantom_beacon = 0;
  std::uint64_t phantom_normal = 0;
  std::uint64_t attacker_moves = 0;
  std::uint64_t attacker_captures = 0;

  friend bool operator==(const Counts&, const Counts&) = default;
};

/// Counts the radio draws of every broadcast: one per neighbour of the
/// sender, whether or not the reception succeeds.
class DrawCounter final : public sim::TransmissionObserver {
 public:
  explicit DrawCounter(const wsn::Graph& graph) : graph_(graph) {}

  void on_transmission(wsn::NodeId from, const sim::Message& /*message*/,
                       sim::SimTime /*at*/) override {
    draws += graph_.degree(from);
  }

  std::uint64_t draws = 0;

 private:
  const wsn::Graph& graph_;
};

// ---------------------------------------------------------------------------
// The phase-split fork
// ---------------------------------------------------------------------------

/// A cell's execution context built from the public PhasePrefix fields the
/// way RunBatch::Fork builds its own — one Simulator, one process per
/// node, one AttackerRuntime — plus a DrawCounter. run() replays
/// RunBatch's per-seed steps one library call at a time, so each phase can
/// be timed; the oracle pins it to RunBatch::run_one bit for bit.
class PhaseSplitFork {
 public:
  PhaseSplitFork(const core::ExperimentConfig& config,
                 const wsn::Topology& topology, const core::PhasePrefix& prefix)
      : config_(config),
        topology_(topology),
        prefix_(prefix),
        draws_(topology.graph),
        simulator_(topology.graph, core::make_radio(config), 0),
        eavesdropper_(simulator_, prefix.das.frame,
                      config.attacker.build(topology.sink), topology.source) {
    for (wsn::NodeId node = 0; node < topology.graph.node_count(); ++node) {
      switch (config.protocol) {
        case core::ProtocolKind::kSlpDas:
          simulator_.add_process(
              node, std::make_unique<slpdas::slp::SlpDas>(
                        prefix.slp, topology.sink, topology.source,
                        prefix.das_hello));
          break;
        case core::ProtocolKind::kPhantomRouting:
          simulator_.add_process(
              node, std::make_unique<slpdas::phantom::PhantomRouting>(
                        prefix.phantom, topology.sink, topology.source,
                        prefix.phantom_hello));
          break;
        case core::ProtocolKind::kProtectionlessDas:
          simulator_.add_process(
              node, std::make_unique<slpdas::das::ProtectionlessDas>(
                        prefix.das, topology.sink, topology.source,
                        prefix.das_hello));
          break;
      }
    }
    simulator_.add_observer(&draws_);
  }

  PhaseSplitFork(const PhaseSplitFork&) = delete;
  PhaseSplitFork& operator=(const PhaseSplitFork&) = delete;

  core::RunResult run(std::uint64_t seed, Tracer& tracer, std::uint64_t id,
                      Counts& counts) {
    const Tracer::Span run_span(tracer, "core.run", id);
    {
      const Tracer::Span span(tracer, "sim.reset_run", id);
      simulator_.reset_run(seed);
      eavesdropper_.reset_run();
      draws_.draws = 0;
    }
    const wsn::Graph& graph = topology_.graph;
    {
      const Tracer::Span span(tracer, "sim.setup_phase", id);
      simulator_.run_until(prefix_.activation);
    }
    const std::uint64_t setup_events = simulator_.events_executed();

    core::RunResult result;
    if (!prefix_.is_phantom) {
      std::optional<slpdas::mac::Schedule> schedule;
      {
        const Tracer::Span span(tracer, "mac.extract_schedule", id);
        schedule.emplace(slpdas::das::extract_schedule(simulator_));
        result.schedule_complete = schedule->complete();
        if (result.schedule_complete) {
          const slpdas::mac::ScheduleStats stats =
              slpdas::mac::compute_stats(*schedule);
          result.schedule_slot_span = stats.span;
          result.schedule_density = stats.density;
        }
      }
      if (config_.check_schedules) {
        const Tracer::Span span(tracer, "verify.check", id);
        result.weak_das_ok =
            slpdas::verify::check_weak_das(graph, *schedule, topology_.sink)
                .ok();
        result.strong_das_ok =
            slpdas::verify::check_strong_das(graph, *schedule, topology_.sink)
                .ok();
      }
    }
    result.safety_periods = prefix_.safety.periods;
    result.source_sink_distance = prefix_.safety.source_sink_distance;
    {
      const Tracer::Span span(tracer, "sim.data_phase", id);
      eavesdropper_.activate(prefix_.activation);
      simulator_.run_until(prefix_.run_end);
    }

    if (eavesdropper_.captured() &&
        *eavesdropper_.capture_time() <= prefix_.safety_end) {
      result.captured = true;
      result.capture_time_s =
          sim::to_seconds(*eavesdropper_.capture_time() - prefix_.activation);
    }
    result.attacker_moves = eavesdropper_.moves_made();

    const std::uint64_t hello = simulator_.sent_of("HELLO");
    const std::uint64_t dissem = simulator_.sent_of("DISSEM");
    const std::uint64_t search = simulator_.sent_of("SEARCH");
    const std::uint64_t change = simulator_.sent_of("CHANGE");
    const std::uint64_t beacon = simulator_.sent_of("BEACON");
    const std::uint64_t normal = simulator_.sent_of("NORMAL");
    const auto node_count = static_cast<double>(graph.node_count());
    result.normal_messages_per_node = static_cast<double>(normal) / node_count;
    result.control_messages_per_node =
        static_cast<double>(hello + dissem + search + change + beacon) /
        node_count;

    std::uint64_t generated = 0;
    std::uint64_t delivered = 0;
    double latency_s = 0.0;
    if (prefix_.is_phantom) {
      const auto& source = dynamic_cast<const slpdas::phantom::PhantomRouting&>(
          simulator_.process(topology_.source));
      const auto& sink = dynamic_cast<const slpdas::phantom::PhantomRouting&>(
          simulator_.process(topology_.sink));
      generated = source.generated_count();
      delivered = sink.delivered_count();
      latency_s = sink.mean_delivery_latency_s();
    } else {
      const auto& source = dynamic_cast<const slpdas::das::ProtectionlessDas&>(
          simulator_.process(topology_.source));
      const auto& sink = dynamic_cast<const slpdas::das::ProtectionlessDas&>(
          simulator_.process(topology_.sink));
      generated = source.generated_count();
      delivered = sink.delivered_count();
      latency_s = sink.mean_delivery_latency_s();
    }
    if (generated > 0) {
      result.delivery_ratio =
          static_cast<double>(delivered) / static_cast<double>(generated);
      result.delivery_latency_s = latency_s;
    }
    result.events_executed = simulator_.events_executed();
    result.deliveries = simulator_.deliveries_executed();
    result.timer_fires = simulator_.timers_fired();

    counts.events += result.events_executed;
    counts.setup_events += setup_events;
    counts.timer_fires += result.timer_fires;
    counts.deliveries += result.deliveries;
    counts.broadcast_draws += draws_.draws;
    if (prefix_.is_phantom) {
      counts.phantom_hello += hello;
      counts.phantom_beacon += beacon;
      counts.phantom_normal += normal;
    } else {
      counts.das_hello += hello;
      counts.das_dissem += dissem;
      counts.das_normal += normal;
      counts.slp_search += search;
      counts.slp_change += change;
    }
    counts.attacker_moves += static_cast<std::uint64_t>(result.attacker_moves);
    counts.attacker_captures += result.captured ? 1 : 0;
    return result;
  }

 private:
  const core::ExperimentConfig& config_;
  const wsn::Topology& topology_;
  const core::PhasePrefix& prefix_;
  DrawCounter draws_;  // registered with simulator_, so declared before it
  sim::Simulator simulator_;
  slpdas::attacker::AttackerRuntime eavesdropper_;
};

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// Seconds to build every cell's seed-independent state once,
/// single-threaded: topology, RunBatch (phase prefix) and one Fork.
double setup_once(const std::vector<core::SweepCell>& cells) {
  const double start = now_s();
  for (const core::SweepCell& cell : cells) {
    const wsn::Topology topology = cell.config.topology.build();
    const core::RunBatch batch(cell.config, topology);
    const core::RunBatch::Fork fork(batch);
  }
  return now_s() - start;
}

// ---------------------------------------------------------------------------
// Result cache state
// ---------------------------------------------------------------------------

/// The cache directory plus the entries every repetition starts with.
struct WarmCache {
  fs::path directory;
  std::set<fs::path> warm;

  /// Removes every entry stored since the warm set was taken, so each
  /// repetition sees the same hits and misses.
  void reset() const {
    std::vector<fs::path> extra;
    for (const fs::directory_entry& entry : fs::directory_iterator(directory)) {
      if (warm.count(entry.path()) == 0) {
        extra.push_back(entry.path());
      }
    }
    for (const fs::path& path : extra) {
      fs::remove(path);
    }
  }
};

/// Computes and stores the warm share of the workload's cells.
WarmCache warm_cache(const Workload& workload, std::uint64_t seed,
                     core::ThreadPool& pool, const fs::path& directory) {
  fs::remove_all(directory);
  core::CellCache cache(directory.string());
  std::vector<core::SweepCell> warm_cells;
  for (std::size_t i = 0; i < workload.cells.size(); ++i) {
    if (i % static_cast<std::size_t>(workload.warm_every) == 0) {
      warm_cells.push_back(workload.cells[i]);
    }
  }
  core::SweepOptions options;
  options.base_seed = seed;
  options.cache = &cache;
  (void)core::run_sweep(warm_cells, options, pool);
  WarmCache out;
  out.directory = directory;
  for (const fs::directory_entry& entry : fs::directory_iterator(directory)) {
    out.warm.insert(entry.path());
  }
  return out;
}

// ---------------------------------------------------------------------------
// The timed pass (end-to-end)
// ---------------------------------------------------------------------------

struct TimedPass {
  bool ok = false;
  std::string error;
  Digest digest;
  double wall_s = 0.0;
  std::uint64_t runs = 0;
  double busy_s = 0.0;   ///< sum of computed cells' wall clocks
  double sweep_s = 0.0;  ///< run_sweep's own wall clock
  std::uint64_t hits = 0;
  std::uint64_t lookups = 0;
};

/// run_sweep over the workload's cells, then its record steps: stream
/// fold (streaming workloads), document write and re-read.
TimedPass timed_pass(const Workload& workload, std::uint64_t seed,
                     core::ThreadPool& pool, core::CellCache* cache,
                     const fs::path& workdir) {
  const fs::path stream_path = workdir / "cells.jsonl";
  const fs::path document_path = workdir / "sweep.json";
  core::SweepOptions options;
  options.threads = pool.thread_count();
  options.base_seed = seed;
  options.cache = cache;
  const core::CellCacheStats before =
      cache != nullptr ? cache->stats() : core::CellCacheStats{};

  TimedPass out;
  try {
    const double start = now_s();
    core::SweepResult result;
    core::SweepJson document;
    if (workload.stream) {
      std::ofstream stream(stream_path, std::ios::binary | std::ios::trunc);
      core::CellStreamHeader header;
      header.name = workload.name;
      header.base_seed = seed;
      header.grid_hash = core::hash_sweep_grid(workload.cells);
      header.cells_total = workload.cells.size();
      header.threads = pool.thread_count();
      core::write_cell_stream_header(stream, header);
      options.stream = &stream;
      result = core::run_sweep(workload.cells, options, pool);
      stream.close();
      std::ifstream in(stream_path, std::ios::binary);
      document = core::fold_cell_stream(core::read_cell_stream(in));
    } else {
      result = core::run_sweep(workload.cells, options, pool);
      document = core::to_sweep_json(result, workload.name);
    }
    {
      std::ofstream file(document_path, std::ios::binary | std::ios::trunc);
      core::write_sweep_json(file, document);
    }
    std::ifstream in(document_path, std::ios::binary);
    document = core::read_sweep_json(in);
    out.wall_s = now_s() - start;
    out.digest = digest(document);

    for (const core::SweepCellResult& cell : result.cells) {
      out.runs += static_cast<std::uint64_t>(cell.runs);
      if (!cell.cached) {
        out.busy_s += cell.wall_seconds;
      }
    }
    out.sweep_s = result.wall_seconds;
    out.ok = true;
  } catch (const std::exception& error) {
    out.error = error.what();
  }
  if (cache != nullptr) {
    const core::CellCacheStats after = cache->stats();
    out.hits = after.hits - before.hits;
    out.lookups = (after.hits + after.misses + after.rejected) -
                  (before.hits + before.misses + before.rejected);
  }
  return out;
}

// ---------------------------------------------------------------------------
// The layered pass (per-layer ledger)
// ---------------------------------------------------------------------------

struct LayeredPass {
  bool ok = false;
  std::string error;
  Digest digest;
  double wall_s = 0.0;
  Counts counts;
};

/// The timed pass's work, single-threaded, one library call per span:
/// per cell the cache probe, set-up (wsn.build, core.prefix_capture,
/// core.fork_construct), every seed's phase-split run, aggregation and
/// the cache store / stream append; then stream fold, document write and
/// re-read. With a disabled tracer this is the untraced twin.
LayeredPass layered_pass(const Workload& workload, std::uint64_t seed,
                         Tracer& tracer, core::CellCache* cache,
                         const fs::path& workdir) {
  const fs::path stream_path = workdir / "layered-cells.jsonl";
  const fs::path document_path = workdir / "layered-sweep.json";
  LayeredPass out;
  try {
    const double start = now_s();
    core::SweepResult sweep = sweep_shell(workload.cells, seed, 1);
    std::ofstream stream;
    if (workload.stream) {
      const Tracer::Span span(tracer, "core.stream_write", 0);
      stream.open(stream_path, std::ios::binary | std::ios::trunc);
      core::CellStreamHeader header;
      header.name = workload.name;
      header.base_seed = seed;
      header.grid_hash = sweep.grid_hash;
      header.cells_total = sweep.cells_total;
      header.threads = 1;
      core::write_cell_stream_header(stream, header);
    }
    for (std::size_t c = 0; c < workload.cells.size(); ++c) {
      const core::SweepCell& cell = workload.cells[c];
      const std::uint64_t cell_id = (static_cast<std::uint64_t>(c) + 1) << 20;
      const double cell_start = now_s();
      core::SweepCellResult result = cell_header(cell, c, seed);
      const core::CellCacheKey key =
          core::make_cell_cache_key(cell.config, result.cell_seed, false);
      if (cache != nullptr) {
        const Tracer::Span span(tracer, "core.cache_lookup", cell_id);
        std::optional<core::SweepJsonCell> hit = cache->lookup(key);
        if (hit) {
          // Graft this grid's position back on, as run_sweep does.
          hit->index = result.index;
          hit->label = result.label;
          hit->coordinates = result.coordinates;
          hit->cell_seed = result.cell_seed;
          hit->runs = result.runs;
          hit->has_config = true;
          hit->config_topology = result.config_topology;
          hit->config_protocol = result.config_protocol;
          hit->config_attacker = result.config_attacker;
          hit->config_radio = result.config_radio;
          result.wall_seconds = hit->wall_seconds;
          result.record_perf = hit->has_perf;
          result.cached = std::move(hit);
        }
      }
      if (!result.cached) {
        std::optional<wsn::Topology> topology;
        {
          const Tracer::Span span(tracer, "wsn.build", cell_id);
          topology.emplace(cell.config.topology.build());
        }
        std::optional<core::PhasePrefix> snapshot;
        {
          const Tracer::Span span(tracer, "core.prefix_capture", cell_id);
          snapshot.emplace(core::PhasePrefix::capture(cell.config, *topology));
        }
        std::optional<PhaseSplitFork> fork;
        {
          const Tracer::Span span(tracer, "core.fork_construct", cell_id);
          fork.emplace(cell.config, *topology, *snapshot);
        }
        std::vector<core::RunResult> runs(
            static_cast<std::size_t>(cell.config.runs));
        for (int run = 0; run < cell.config.runs; ++run) {
          runs[static_cast<std::size_t>(run)] = fork->run(
              slpdas::derive_seed(result.cell_seed,
                                  static_cast<std::uint64_t>(run)),
              tracer, cell_id + static_cast<std::uint64_t>(run) + 1,
              out.counts);
        }
        {
          const Tracer::Span span(tracer, "core.aggregate", cell_id);
          result.result =
              core::aggregate_runs(runs, cell.config.check_schedules);
          result.record_perf = true;
        }
        {
          // run_sweep frees a finished cell's batch and topology too.
          const Tracer::Span span(tracer, "core.release", cell_id);
          fork.reset();
          snapshot.reset();
          topology.reset();
        }
        result.wall_seconds = now_s() - cell_start;
      }
      if (cache != nullptr && !result.cached) {
        const Tracer::Span span(tracer, "core.cache_store", cell_id);
        core::SweepResult one = sweep_shell(workload.cells, seed, 1);
        one.cells.push_back(result);
        cache->store(key, core::to_sweep_json(one, workload.name).cells.front());
      }
      if (workload.stream) {
        const Tracer::Span span(tracer, "core.stream_write", cell_id);
        core::SweepResult one = sweep_shell(workload.cells, seed, 1);
        one.cells.push_back(result);
        std::ostringstream line;
        core::write_cell_stream_record(
            line, core::to_sweep_json(one, workload.name).cells.front());
        stream << line.str();
        stream.flush();
        if (!stream.good()) {
          throw std::runtime_error("cell stream write failed");
        }
      }
      sweep.cells.push_back(std::move(result));
    }

    core::SweepJson document;
    if (workload.stream) {
      const Tracer::Span span(tracer, "core.stream_fold", 0);
      stream.close();
      std::ifstream in(stream_path, std::ios::binary);
      document = core::fold_cell_stream(core::read_cell_stream(in));
    }
    {
      const Tracer::Span span(tracer, "core.serialise", 0);
      if (!workload.stream) {
        document = core::to_sweep_json(sweep, workload.name);
      }
      std::ofstream file(document_path, std::ios::binary | std::ios::trunc);
      core::write_sweep_json(file, document);
    }
    {
      const Tracer::Span span(tracer, "core.parse", 0);
      std::ifstream in(document_path, std::ios::binary);
      document = core::read_sweep_json(in);
    }
    out.wall_s = now_s() - start;
    out.digest = digest(document);
    out.ok = true;
  } catch (const std::exception& error) {
    out.error = error.what();
  }
  return out;
}

// ---------------------------------------------------------------------------
// The oracle
// ---------------------------------------------------------------------------

struct Oracle {
  core::SweepJson document;  ///< aggregate_runs over the phase-split runs
  Digest digest;             ///< of `document`
  std::size_t failed_cells = 0;
  std::vector<std::string> errors;
  Counts counts;
  std::int64_t max_nodes = 0;
  double node_sum = 0.0;
  double degree_sum = 0.0;  ///< sum over cells of 2E
};

/// Runs every seed of every cell through the phase-split fork AND through
/// RunBatch::run_one, requires them equal, and aggregates the former into
/// the reference document every other pass is compared against.
Oracle oracle_pass(const Workload& workload, std::uint64_t seed) {
  Oracle out;
  Tracer off(false);
  core::SweepResult sweep = sweep_shell(workload.cells, seed, 1);
  for (std::size_t c = 0; c < workload.cells.size(); ++c) {
    const core::SweepCell& cell = workload.cells[c];
    core::SweepCellResult result = cell_header(cell, c, seed);
    try {
      const wsn::Topology topology = cell.config.topology.build();
      out.max_nodes = std::max<std::int64_t>(out.max_nodes,
                                             topology.graph.node_count());
      out.node_sum += static_cast<double>(topology.graph.node_count());
      out.degree_sum += 2.0 * static_cast<double>(topology.graph.edge_count());
      const core::RunBatch batch(cell.config, topology);
      PhaseSplitFork fork(cell.config, topology, batch.prefix());
      std::vector<core::RunResult> runs;
      bool equal = true;
      for (int run = 0; run < cell.config.runs; ++run) {
        const std::uint64_t run_seed = slpdas::derive_seed(
            result.cell_seed, static_cast<std::uint64_t>(run));
        runs.push_back(fork.run(run_seed, off, 0, out.counts));
        equal = equal && same_result(runs.back(), batch.run_one(run_seed));
      }
      if (!equal) {
        ++out.failed_cells;
        out.errors.push_back(cell.label +
                             ": phase-split run differs from run_one");
      }
      result.result = core::aggregate_runs(runs, cell.config.check_schedules);
    } catch (const std::exception& error) {
      ++out.failed_cells;
      out.errors.push_back(cell.label + ": " + error.what());
    }
    result.record_perf = true;
    sweep.cells.push_back(std::move(result));
  }
  out.document = without_clocks(core::to_sweep_json(sweep, workload.name));
  out.digest = digest(out.document);
  return out;
}

// ---------------------------------------------------------------------------
// Command line and output
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string workdir;
  std::string expect_fingerprint;
  std::string spans_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  bool have_workdir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
      have_workdir = true;
    } else if (flag == "--expect-fingerprint") {
      args.expect_fingerprint = value;
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_workdir || !(args.seconds > 0.0)) {
    throw std::invalid_argument(
        "usage: slpdas_perfbench --workload NAME --seed N --seconds S "
        "--trace 0|1 --workdir DIR [--tiny] [--expect-fingerprint HEX] "
        "[--spans-out FILE]");
  }
  return args;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << '{';
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    out << (i == 0 ? "" : ", ") << json_string(metrics[i].name)
        << ": {\"value\": " << value << ", \"unit\": "
        << json_string(metrics[i].unit) << '}';
  }
  out << '}';
  return out.str();
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// Per-layer metrics from the traced repetitions.
std::vector<Metric> layer_metrics(
    const std::vector<std::map<std::string, double>>& self_by_rep,
    const std::vector<double>& run_ms, const Counts& counts,
    const Oracle& oracle, double traced_s, double untraced_s,
    double unattributed, double efficiency, double hit_ratio) {
  static const char* const kLayers[] = {
      "wsn.build",        "core.prefix_capture", "core.fork_construct",
      "core.run",         "sim.reset_run",       "sim.setup_phase",
      "mac.extract_schedule", "verify.check",    "sim.data_phase",
      "core.aggregate",   "core.release",        "core.cache_lookup",
      "core.cache_store",
      "core.stream_write", "core.stream_fold",   "core.serialise",
      "core.parse"};
  std::vector<Metric> metrics;
  std::map<std::string, double> layer;
  for (const char* name : kLayers) {
    std::vector<double> values;
    for (const std::map<std::string, double>& self : self_by_rep) {
      const auto found = self.find(name);
      values.push_back(found == self.end() ? 0.0 : found->second);
    }
    layer[name] = median(values);
    metrics.push_back({std::string(name) + "_s", layer[name], "s"});
  }
  const auto count = [&metrics](const char* name, std::uint64_t value) {
    metrics.push_back({name, static_cast<double>(value), "count"});
  };
  const std::uint64_t stale = counts.events - counts.deliveries - counts.timer_fires;
  count("sim.events", counts.events);
  count("sim.setup_events", counts.setup_events);
  count("sim.data_events", counts.events - counts.setup_events);
  count("sim.timer_fires", counts.timer_fires);
  count("sim.deliveries", counts.deliveries);
  count("sim.stale_events", stale);
  count("sim.broadcast_draws", counts.broadcast_draws);
  count("das.sent.hello", counts.das_hello);
  count("das.sent.dissem", counts.das_dissem);
  count("das.sent.normal", counts.das_normal);
  count("slp.sent.search", counts.slp_search);
  count("slp.sent.change", counts.slp_change);
  count("phantom.sent.hello", counts.phantom_hello);
  count("phantom.sent.beacon", counts.phantom_beacon);
  count("phantom.sent.normal", counts.phantom_normal);
  count("attacker.moves", counts.attacker_moves);
  count("attacker.captures", counts.attacker_captures);
  count("wsn.nodes", static_cast<std::uint64_t>(oracle.max_nodes));
  metrics.push_back({"wsn.mean_degree", ratio(oracle.degree_sum, oracle.node_sum),
                     "ratio"});
  metrics.push_back({"sim.stale_ratio",
                     ratio(static_cast<double>(stale),
                           static_cast<double>(counts.events)),
                     "ratio"});
  metrics.push_back({"sim.reception_ratio",
                     ratio(static_cast<double>(counts.deliveries),
                           static_cast<double>(counts.broadcast_draws)),
                     "ratio"});
  metrics.push_back(
      {"sim.ns_per_event",
       ratio((layer["sim.setup_phase"] + layer["sim.data_phase"]) * 1e9,
             static_cast<double>(counts.events)),
       "ns"});
  metrics.push_back({"core.run_p50_ms", percentile(run_ms, 0.5), "ms"});
  metrics.push_back({"core.run_p90_ms", percentile(run_ms, 0.9), "ms"});
  metrics.push_back({"core.sweep_parallel_efficiency", efficiency, "ratio"});
  metrics.push_back({"core.cache_hit_ratio", hit_ratio, "ratio"});
  metrics.push_back({"trace.wall_s", traced_s, "s"});
  metrics.push_back({"trace.untraced_wall_s", untraced_s, "s"});
  metrics.push_back({"trace.overhead_share",
                     ratio(traced_s - untraced_s, untraced_s), "ratio"});
  metrics.push_back({"trace.unattributed_share", unattributed, "ratio"});
  return metrics;
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

int run(const Args& args) {
  pin_allocator();
  const Workload workload = make_workload(args.workload, args.tiny);
  const int hardware =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int threads = std::min(workload.threads, hardware);
  const fs::path workdir(args.workdir);
  fs::create_directories(workdir);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;

  core::ThreadPool pool(threads);
  std::optional<WarmCache> warm;
  std::optional<core::CellCache> cache;
  if (workload.warm_every > 0) {
    warm = warm_cache(workload, args.seed, pool, workdir / "cache");
    cache.emplace((workdir / "cache").string());
  }

  // ---- timed repetitions, with set-up samples in between -------------------
  // The peak resident set is read after kRssRepetitions timed repetitions,
  // before any set-up sample, so it does not depend on how many
  // repetitions fit in --seconds. From then on set-up is sampled after
  // every timed repetition until it has taken kSetupShare of the elapsed
  // time, so both medians span the same stretch of host load. The first
  // repetition and the first quarter of the set-up samples warm the
  // allocator and are not reported.
  const double timed_budget = args.trace ? 0.4 * args.seconds : args.seconds;
  const std::size_t min_reps = args.trace ? 1 : 4;
  std::vector<TimedPass> timed;
  std::vector<double> setups;
  double setup_total = 0.0;
  double rss_mb = 0.0;
  const double timed_start = now_s();
  while (timed.size() < min_reps || now_s() - timed_start < timed_budget) {
    if (warm) {
      warm->reset();
    }
    timed.push_back(timed_pass(workload, args.seed, pool,
                               cache ? &*cache : nullptr, workdir));
    if (timed.size() == kRssRepetitions) {
      rss_mb = peak_rss_mb();
    }
    while (!args.trace && timed.size() >= kRssRepetitions &&
           setup_total < kSetupShare * (now_s() - timed_start)) {
      setups.push_back(setup_once(workload.cells));
      setup_total += setups.back();
    }
  }
  const double setup_s = median(std::vector<double>(
      setups.begin() + static_cast<std::ptrdiff_t>(setups.size() / 4),
      setups.end()));

  // ---- oracle --------------------------------------------------------------
  const Oracle oracle = oracle_pass(workload, args.seed);
  attempted += workload.cells.size();
  failed += oracle.failed_cells;
  errors.insert(errors.end(), oracle.errors.begin(), oracle.errors.end());
  const std::string fingerprint =
      hex16(fnv1a(document_bytes(results_only(oracle.document))));
  if (!args.expect_fingerprint.empty() && fingerprint != args.expect_fingerprint) {
    ++failed;
    errors.push_back("result fingerprint " + fingerprint + " != recorded " +
                     args.expect_fingerprint);
  }

  std::vector<double> rates;
  std::vector<double> efficiencies;
  double hit_ratio = 0.0;
  for (std::size_t rep = 0; rep < timed.size(); ++rep) {
    const TimedPass& pass = timed[rep];
    attempted += workload.cells.size();
    if (!pass.ok) {
      failed += workload.cells.size();
      errors.push_back("timed pass: " + pass.error);
      continue;
    }
    const std::size_t mismatched = count_mismatches(oracle.digest, pass.digest);
    if (mismatched > 0) {
      failed += mismatched;
      errors.push_back("timed pass: " + std::to_string(mismatched) +
                       " cell(s) differ from the oracle");
    }
    if (rep > 0 || timed.size() == 1) {
      rates.push_back(ratio(static_cast<double>(pass.runs), pass.wall_s));
    }
    efficiencies.push_back(ratio(pass.busy_s, pass.sweep_s * threads));
    hit_ratio = ratio(static_cast<double>(pass.hits),
                      static_cast<double>(pass.lookups));
  }

  // ---- traced repetitions (per-layer ledger) -------------------------------
  if (args.trace) {
    std::vector<std::map<std::string, double>> self_by_rep;
    std::vector<double> traced_walls;
    std::vector<double> untraced_walls;
    std::vector<double> run_ms;
    double unattributed = 0.0;
    std::optional<Counts> counts;
    Tracer tracer(true);
    Tracer off(false);
    const double budget = 0.6 * args.seconds;
    const double start = now_s();
    for (int rep = 0; rep == 0 || now_s() - start < budget; ++rep) {
      for (const bool traced : {false, true}) {
        if (warm) {
          warm->reset();
        }
        tracer.clear();
        const LayeredPass pass = layered_pass(workload, args.seed,
                                              traced ? tracer : off,
                                              cache ? &*cache : nullptr, workdir);
        attempted += workload.cells.size();
        if (!pass.ok) {
          failed += workload.cells.size();
          errors.push_back("layered pass: " + pass.error);
          continue;
        }
        const std::size_t mismatched =
            count_mismatches(oracle.digest, pass.digest);
        if (mismatched > 0) {
          failed += mismatched;
          errors.push_back("layered pass: " + std::to_string(mismatched) +
                           " cell(s) differ from the oracle");
        }
        if (!counts) {
          counts = pass.counts;
        } else if (!(*counts == pass.counts)) {
          ++failed;
          errors.push_back("count metrics drifted between repetitions");
        }
        if (!traced) {
          untraced_walls.push_back(pass.wall_s);
          continue;
        }
        traced_walls.push_back(pass.wall_s);
        self_by_rep.push_back(tracer.self_seconds());
        for (const double d : tracer.durations("core.run")) {
          run_ms.push_back(d * 1e3);
        }
        const double gap =
            std::abs(pass.wall_s - tracer.root_seconds()) / pass.wall_s;
        unattributed = std::max(unattributed, gap);
      }
    }
    if (unattributed > kReconcileTolerance) {
      ++failed;
      errors.push_back("layer self times do not reconcile with the traced "
                       "wall time");
    }
    if (!args.spans_out.empty()) {
      std::ofstream spans(args.spans_out, std::ios::trunc);
      tracer.write_jsonl(spans);
    }
    metrics = layer_metrics(self_by_rep, run_ms, counts.value_or(Counts{}),
                            oracle, median(traced_walls),
                            median(untraced_walls), unattributed,
                            median(efficiencies), hit_ratio);
  } else {
    metrics = {
        {"runs_per_s", median(rates), "runs/s"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", rss_mb, "MiB"},
        {"cells_ok_ratio",
         1.0 - ratio(static_cast<double>(failed), static_cast<double>(attempted)),
         "fraction"}};
  }

  std::map<std::string, int> distinct_errors;
  for (const std::string& error : errors) {
    ++distinct_errors[error];
  }
  for (const auto& [error, times] : distinct_errors) {
    std::cerr << "slpdas_perfbench: FAILED (x" << times << "): " << error
              << '\n';
  }
  std::error_code ignored;
  fs::remove_all(workdir, ignored);

  std::ostringstream info;
  info << std::setprecision(std::numeric_limits<double>::max_digits10)
       << "{\"info\": {\"workload\": " << json_string(workload.name)
       << ", \"seed\": " << args.seed << ", \"tiny\": "
       << (args.tiny ? "true" : "false") << ", \"trace\": "
       << (args.trace ? "true" : "false") << ", \"cells\": "
       << workload.cells.size() << ", \"threads\": " << threads
       << ", \"nproc\": " << hardware << ", \"cpu\": "
       << json_string(cpu_model()) << ", \"compiler\": "
       << json_string(compiler())
       << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
       << ", \"timed_repetitions\": " << timed.size()
       << ", \"setup_samples\": " << setups.size() << ", \"runs_per_s_q1\": "
       << percentile(rates, 0.25) << ", \"runs_per_s_q3\": "
       << percentile(rates, 0.75)
       << ", \"failed_ratio\": "
       << ratio(static_cast<double>(failed), static_cast<double>(attempted))
       << ", \"fingerprint\": " << json_string(fingerprint) << "}}";
  std::cout << info.str() << '\n';
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "slpdas_perfbench: " << error.what() << '\n';
    return 2;
  }
}
