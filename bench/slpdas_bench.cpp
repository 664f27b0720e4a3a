// slpdas_bench — the one CLI for every paper experiment.
//
// Each experiment (fig5a, fig5b, cmp_phantom, abl_*, table1,
// message_overhead, perf_*) is a registered core::Scenario; this binary
// lists, filters and runs them over ONE shared core::Sweep thread pool,
// with uniform flags, and shards grids across processes:
//
//   slpdas_bench list
//   slpdas_bench --all --smoke --json            # CI smoke: every scenario
//   slpdas_bench fig5a --runs 100 --threads 8 --progress --json
//   slpdas_bench fig5a --deterministic --shard 0/2 --json   # process 1
//   slpdas_bench fig5a --deterministic --shard 1/2 --json   # process 2
//   slpdas_bench merge BENCH_fig5a.shard0of2.json
//                      BENCH_fig5a.shard1of2.json --out BENCH_fig5a.json
//   slpdas_bench report BENCH_fig5a.json         # re-render the table
//
// With --deterministic, the merged document is bit-identical to an
// unsharded run (same --threads), which the shard_merge_test locks in.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "slpdas/core/cell_cache.hpp"
#include "slpdas/core/compare.hpp"
#include "slpdas/core/fleet.hpp"
#include "slpdas/core/scenario.hpp"
#include "slpdas/detail/spec_format.hpp"
#include "slpdas/metrics/table.hpp"

namespace {

using namespace slpdas;

struct CliOptions {
  std::vector<std::string> names;
  bool all = false;
  bool list = false;
  bool progress = false;
  bool json = false;
  bool deterministic = false;
  core::ScenarioOptions scenario;
  int threads = 0;
  int shard_index = 0;
  int shard_count = 1;
  std::string out_dir = ".";
  std::string merge_out;     ///< merge: --out path ("" = stdout)
  std::string cache_dir;     ///< run: --cache directory ("" = off)
  bool cache_readonly = false;
  int workers = 4;           ///< fleet: local worker process count
  int worker_threads = 1;    ///< fleet: pool size of each worker
  std::string fleet_dir;     ///< fleet: claim/record/log directory
  std::string worker_name;   ///< fleet-worker: this incarnation's name
  int heartbeat_ms = 250;    ///< fleet / fleet-worker: liveness cadence
  bool fail_on_drift = false;  ///< compare: exit 1 on deterministic drift
};

int usage(std::ostream& out, int code) {
  out << "usage:\n"
         "  slpdas_bench list\n"
         "  slpdas_bench [run] (--all | SCENARIO...) [options]\n"
         "  slpdas_bench fleet SCENARIO [--workers N] [options]\n"
         "  slpdas_bench report FILE...\n"
         "  slpdas_bench merge (FILE | DIR)... [--out PATH]\n"
         "  slpdas_bench compare A B [--fail-on-drift]\n"
         "  slpdas_bench cache (stats | verify | gc) DIR\n"
         "\nrun options:\n"
         "  --runs N         seeds per grid cell (0 = scenario default)\n"
         "  --seed N         sweep base seed (0 = scenario default)\n"
         "  --sd N           search distance override (fig5 family only)\n"
         "  --set KEY=VALUE  custom-scenario axis assignment; repeat a KEY\n"
         "                   to sweep it (keys: topology, protocol,\n"
         "                   attacker, radio, sd, cs — spec grammar in the\n"
         "                   README, e.g. topology=udisk:n=400,r=10)\n"
         "  --threads N      shared pool size (0 = hardware concurrency)\n"
         "  --progress       per-cell progress lines on stderr\n"
         "  --smoke          smallest grid, one run per cell\n"
         "  --json           write BENCH_<name>.json (per scenario)\n"
         "  --out-dir DIR    existing directory for --json files (default .)\n"
         "  --shard I/N      run only this process's share of each grid\n"
         "  --deterministic  zero wall clocks so output is bit-reproducible\n"
         "  --cache DIR      content-addressed cell result cache: serve\n"
         "                   already-stored cells from DIR instead of\n"
         "                   simulating them, store the rest on completion\n"
         "                   (slpdas.cachecell.v1, one file per cell); rerun\n"
         "                   a killed sweep with the same DIR to resume it\n"
         "  --cache-readonly consult --cache DIR but never write to it\n"
         "\nfleet options (multi-process sweep with cell-granular work "
         "stealing):\n"
         "  --workers N      local worker processes (default 4)\n"
         "  --worker-threads N  pool size of EACH worker (default 1); the\n"
         "                   folded document matches a single-process run\n"
         "                   with --threads workers*worker-threads\n"
         "  --fleet-dir DIR  claim/record/log directory (default\n"
         "                   OUT_DIR/fleet-<scenario>); an existing\n"
         "                   directory for the same sweep is resumed\n"
         "  --heartbeat-ms N worker liveness cadence (default 250; at most\n"
         "                   2500, a quarter of the 10 s claim expiry)\n"
         "\nmerge: a DIR argument globs its *.json shard documents — or,\n"
         "when DIR holds a shardmap.json, folds the whole fleet directory.\n"
         "\ncompare options:\n"
         "  --fail-on-drift  exit 1 when any deterministic metric differs\n"
         "                   or the cell sets do not match (wall clocks\n"
         "                   and events/sec never count as drift)\n";
  return code;
}

int list_scenarios(std::ostream& out) {
  metrics::Table table({"scenario", "paper anchor", "cells", "runs/cell",
                        "summary"});
  for (const core::Scenario& scenario :
       core::ScenarioRegistry::global().scenarios()) {
    const core::ScenarioOptions defaults;
    table.add_row({scenario.name, scenario.reference,
                   std::to_string(scenario.cells(defaults).size()),
                   std::to_string(scenario.default_runs), scenario.summary});
  }
  table.print(out);
  out << "\nrun one with: slpdas_bench <scenario> [--runs N] [--json], or "
         "all of them with --all\n";
  return 0;
}

core::SweepJson load_document(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open " + path);
  }
  return core::read_sweep_json(in);
}

/// Where --json writes scenario `name`'s document.
std::string document_path(const CliOptions& options, const std::string& name) {
  std::string path = options.out_dir + "/BENCH_" + name;
  if (options.shard_count > 1) {
    path += ".shard" + std::to_string(options.shard_index) + "of" +
            std::to_string(options.shard_count);
  }
  return path + ".json";
}

/// Writes `document` to `path` and confirms it on `note`. False, after
/// naming the path on stderr, when the file cannot be opened or any write
/// fails — a full disk shows only once the buffer is flushed.
bool write_document(const std::string& path, const core::SweepJson& document,
                    std::ostream& note) {
  std::ofstream out(path);
  if (out) {
    core::write_sweep_json(out, document);
    out.close();
  }
  if (!out) {
    std::cerr << "cannot write " << path << '\n';
    return false;
  }
  note << "(wrote " << path << ")\n";
  return true;
}

/// The documents are written after the sweep, so a missing --out-dir is
/// refused before any cell runs rather than after all of them.
bool out_dir_usable(const CliOptions& options, const std::string& name) {
  if (!options.json || std::filesystem::is_directory(options.out_dir)) {
    return true;
  }
  std::cerr << "cannot open " << document_path(options, name)
            << " for writing (no directory " << options.out_dir << ")\n";
  return false;
}

int run_scenarios(const CliOptions& options) {
  const core::ScenarioRegistry& registry = core::ScenarioRegistry::global();
  std::vector<const core::Scenario*> selected;
  if (options.all) {
    for (const core::Scenario& scenario : registry.scenarios()) {
      selected.push_back(&scenario);
    }
  } else {
    for (const std::string& name : options.names) {
      const core::Scenario* scenario = registry.find(name);
      if (scenario == nullptr) {
        std::cerr << "unknown scenario '" << name << "'; available:";
        for (const core::Scenario& s : registry.scenarios()) {
          std::cerr << ' ' << s.name;
        }
        std::cerr << '\n';
        return 2;
      }
      selected.push_back(scenario);
    }
  }
  if (selected.empty()) {
    return usage(std::cerr, 2);
  }
  for (const core::Scenario* scenario : selected) {
    // A knob the scenario would silently ignore is a mis-specified
    // experiment — refuse it up front, naming the scenarios that do
    // honour the option.
    const std::string problem =
        core::unsupported_option(*scenario, options.scenario);
    if (!problem.empty()) {
      std::cerr << problem << '\n';
      return 2;
    }
  }
  if (options.shard_count > 1 && !options.json) {
    // Without --json a shard's results would be computed and then thrown
    // away (reports only render from complete documents) — refuse up
    // front rather than after hours of sweep work.
    std::cerr << "--shard requires --json: shard results are only useful "
                 "as documents for 'slpdas_bench merge'\n";
    return 2;
  }
  if (!out_dir_usable(options, selected.front()->name)) {
    return 1;
  }

  // One pool for everything: scenarios run back to back, their (cell,
  // run) work items all scheduled onto these workers.
  core::ThreadPool pool(options.threads);
  core::ScenarioExecution execution;
  execution.shard_index = options.shard_index;
  execution.shard_count = options.shard_count;
  execution.deterministic_timing = options.deterministic;
  execution.progress = options.progress ? &std::cerr : nullptr;

  // One cache across every selected scenario: overlapping grids (the
  // whole point of content addressing) collapse to their distinct cells.
  std::optional<core::CellCache> cache;
  if (!options.cache_dir.empty()) {
    cache.emplace(options.cache_dir, options.cache_readonly);
    execution.cache = &*cache;
  }

  const bool sharded = options.shard_count > 1;
  int exit_code = 0;
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const core::Scenario& scenario = *selected[i];
    if (i > 0) {
      std::cout << '\n';
    }
    std::cout << "=== " << scenario.name << " — " << scenario.reference
              << " ===\n";
    const core::CellCacheStats cache_before =
        cache ? cache->stats() : core::CellCacheStats{};
    const core::SweepJson document =
        core::run_scenario(scenario, options.scenario, execution, pool);
    if (cache) {
      const core::CellCacheStats s = cache->stats();
      std::cout << "cache: " << (s.hits - cache_before.hits) << " hit(s), "
                << (s.misses - cache_before.misses) << " miss(es), "
                << (s.rejected - cache_before.rejected) << " rejected, "
                << (s.stores - cache_before.stores) << " stored";
      if (s.store_failures != cache_before.store_failures) {
        std::cout << ", " << (s.store_failures - cache_before.store_failures)
                  << " store failure(s)";
      }
      std::cout << " (" << cache->directory() << ")\n";
    }

    if (options.json &&
        !write_document(document_path(options, scenario.name), document,
                        std::cout)) {
      return 1;
    }

    if (sharded) {
      std::cout << "shard " << options.shard_index << "/"
                << options.shard_count << ": ran " << document.cells.size()
                << " of " << document.cells_total
                << " cells; merge the shard documents to render the "
                   "report\n";
    } else {
      const int code = scenario.report(std::cout, document, options.scenario);
      exit_code = std::max(exit_code, code);
    }
  }
  return exit_code;
}

int report_files(const std::vector<std::string>& paths,
                 const core::ScenarioOptions& scenario_options) {
  if (paths.empty()) {
    return usage(std::cerr, 2);
  }
  int exit_code = 0;
  for (const std::string& path : paths) {
    const core::SweepJson document = load_document(path);
    if (document.shard_count > 1) {
      std::cerr << path << ": shard " << document.shard_index << "/"
                << document.shard_count
                << " — merge the shard documents before reporting\n";
      return 1;
    }
    const core::Scenario* scenario =
        core::ScenarioRegistry::global().find(document.name);
    if (scenario == nullptr) {
      std::cerr << path << ": no registered scenario named '" << document.name
                << "'\n";
      return 1;
    }
    std::cout << "=== " << scenario->name << " — " << scenario->reference
              << " (from " << path << ") ===\n";
    exit_code = std::max(
        exit_code, scenario->report(std::cout, document, scenario_options));
  }
  return exit_code;
}

/// Loads one merge operand into `documents`: a .json sweep document or a
/// directory — a fleet directory (one with a shardmap.json) folds as a
/// whole; any other directory contributes every *.json file inside, in
/// name order.
void collect_documents(const std::string& path,
                       std::vector<core::SweepJson>& documents) {
  namespace fs = std::filesystem;
  if (fs::is_directory(path)) {
    if (core::is_fleet_directory(path)) {
      documents.push_back(core::fold_fleet_directory(path));
      return;
    }
    std::vector<std::string> files;
    for (const fs::directory_entry& entry : fs::directory_iterator(path)) {
      if (entry.is_regular_file() && entry.path().extension() == ".json") {
        files.push_back(entry.path().string());
      }
    }
    if (files.empty()) {
      throw std::runtime_error(path + ": no *.json shard documents");
    }
    std::sort(files.begin(), files.end());
    for (const std::string& file : files) {
      collect_documents(file, documents);
    }
    return;
  }
  documents.push_back(load_document(path));
}

int merge_files(const std::vector<std::string>& paths,
                const std::string& out_path) {
  if (paths.size() < 1) {
    return usage(std::cerr, 2);
  }
  std::vector<core::SweepJson> shards;
  shards.reserve(paths.size());
  for (const std::string& path : paths) {
    collect_documents(path, shards);
  }
  const core::SweepJson merged = core::merge_sweep_shards(std::move(shards));
  if (out_path.empty()) {
    core::write_sweep_json(std::cout, merged);
    return 0;
  }
  return write_document(out_path, merged, std::cerr) ? 0 : 1;
}

/// Resolves the one scenario a fleet / fleet-worker invocation names,
/// refusing unsupported scenario options exactly like `run`.
const core::Scenario* resolve_single_scenario(const CliOptions& options,
                                              const char* command) {
  if (options.all || options.names.size() != 1) {
    std::cerr << "slpdas_bench " << command
              << " takes exactly one scenario\n";
    return nullptr;
  }
  const core::Scenario* scenario =
      core::ScenarioRegistry::global().find(options.names.front());
  if (scenario == nullptr) {
    std::cerr << "unknown scenario '" << options.names.front() << "'\n";
    return nullptr;
  }
  const std::string problem =
      core::unsupported_option(*scenario, options.scenario);
  if (!problem.empty()) {
    std::cerr << problem << '\n';
    return nullptr;
  }
  return scenario;
}

int fleet_command(const CliOptions& options) {
  const core::Scenario* scenario = resolve_single_scenario(options, "fleet");
  if (scenario == nullptr) {
    return 2;
  }
  if (options.threads != 0) {
    std::cerr << "fleet: use --workers and --worker-threads (the folded "
                 "document matches --threads workers*worker-threads)\n";
    return 2;
  }
  if (options.shard_count > 1) {
    std::cerr << "fleet: --shard does not compose with fleet (the claim "
                 "directory already distributes and records cells)\n";
    return 2;
  }
  if (!out_dir_usable(options, scenario->name)) {
    return 1;
  }
  core::FleetOptions fleet;
  fleet.directory = options.fleet_dir.empty()
                        ? options.out_dir + "/fleet-" + scenario->name
                        : options.fleet_dir;
  fleet.workers = options.workers;
  fleet.worker_threads = options.worker_threads;
  fleet.deterministic = options.deterministic;
  fleet.heartbeat_interval_ms = options.heartbeat_ms;
  fleet.log = &std::cerr;
  fleet.cache_dir = options.cache_dir;
  fleet.cache_readonly = options.cache_readonly;

  std::cout << "=== " << scenario->name << " — " << scenario->reference
            << " (fleet: " << fleet.workers << " worker(s) x "
            << fleet.worker_threads << " thread(s), dir " << fleet.directory
            << ") ===\n";
  const core::SweepJson document =
      core::run_fleet(*scenario, options.scenario, fleet);

  if (options.json &&
      !write_document(document_path(options, scenario->name), document,
                      std::cout)) {
    return 1;
  }
  return scenario->report(std::cout, document, options.scenario);
}

int fleet_worker_command(const CliOptions& options) {
  const core::Scenario* scenario =
      resolve_single_scenario(options, "fleet-worker");
  if (scenario == nullptr) {
    return 2;
  }
  if (options.fleet_dir.empty() || options.worker_name.empty()) {
    std::cerr << "fleet-worker requires --fleet-dir DIR and --worker-name "
                 "NAME (normally spawned by 'slpdas_bench fleet')\n";
    return 2;
  }
  if (options.threads != 0 || options.deterministic) {
    std::cerr << "fleet-worker: --threads and --deterministic come from the "
                 "fleet directory's shardmap.json (set them on 'slpdas_bench "
                 "fleet' as --worker-threads and --deterministic)\n";
    return 2;
  }
  core::FleetWorkerOptions worker;
  worker.directory = options.fleet_dir;
  worker.worker = options.worker_name;
  worker.heartbeat_interval_ms = options.heartbeat_ms;
  worker.log = &std::cerr;
  std::optional<core::CellCache> cache;
  if (!options.cache_dir.empty()) {
    cache.emplace(options.cache_dir, options.cache_readonly);
    worker.cache = &*cache;
  }
  const std::size_t computed =
      core::run_fleet_worker(*scenario, options.scenario, worker);
  std::cout << "fleet worker " << worker.worker << ": computed " << computed
            << " cell(s)\n";
  return 0;
}

int compare_command(const CliOptions& options) {
  if (options.names.size() != 2) {
    std::cerr << "usage: slpdas_bench compare A B [--fail-on-drift]\n";
    return 2;
  }
  const core::SweepJson a = load_document(options.names[0]);
  const core::SweepJson b = load_document(options.names[1]);
  std::cout << "=== compare " << options.names[0] << " (" << a.name
            << ") vs " << options.names[1] << " (" << b.name << ") ===\n";
  const core::SweepComparison comparison = core::compare_sweeps(a, b);
  core::render_comparison(std::cout, comparison);
  if (options.fail_on_drift && !comparison.clean()) {
    std::cout << "compare: FAIL (--fail-on-drift)\n";
    return 1;
  }
  return 0;
}

int cache_command(const std::vector<std::string>& names) {
  if (names.size() != 2 ||
      (names[0] != "stats" && names[0] != "verify" && names[0] != "gc")) {
    std::cerr << "usage: slpdas_bench cache (stats | verify | gc) DIR\n";
    return 2;
  }
  const std::string& action = names[0];
  const std::string& dir = names[1];
  if (action == "gc") {
    const core::CellCacheGcReport report = core::gc_cell_cache(dir);
    std::cout << "cache gc " << dir << ": removed "
              << report.removed_invalid << " invalid entr"
              << (report.removed_invalid == 1 ? "y" : "ies") << " and "
              << report.removed_temp << " stale tmp file(s), reclaimed "
              << report.reclaimed_bytes << " bytes\n";
    return 0;
  }
  const core::CellCacheScanReport report = core::scan_cell_cache(dir);
  if (action == "stats") {
    std::cout << "cache " << dir << ": " << report.entries.size()
              << " entr" << (report.entries.size() == 1 ? "y" : "ies")
              << " (" << report.valid << " valid, " << report.invalid
              << " invalid), " << report.temp_files.size()
              << " stale tmp file(s), " << report.total_bytes << " bytes\n";
    return 0;
  }
  // verify: list every invalid entry with its first validation failure,
  // and fail the process when any exists — the CI-able form of "a
  // corrupted entry is recomputed, not trusted".
  for (const core::CellCacheEntryReport& entry : report.entries) {
    if (!entry.valid) {
      std::cout << entry.path << ": " << entry.error << '\n';
    }
  }
  std::cout << "cache verify " << dir << ": " << report.valid << " valid, "
            << report.invalid << " invalid\n";
  return report.invalid == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  core::register_builtin_scenarios();

  CliOptions options;
  std::string command = "run";
  int first = 1;
  if (argc > 1) {
    const std::string arg = argv[1];
    if (arg == "list" || arg == "run" || arg == "report" || arg == "merge" ||
        arg == "cache" || arg == "fleet" || arg == "fleet-worker" ||
        arg == "compare") {
      command = arg;
      first = 2;
    }
  }

  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next_value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << flag << '\n';
        std::exit(2);
      }
      return argv[++i];
    };
    // Numeric flags go through the spec reader: a strict whole-token,
    // locale-free parse, so leading whitespace, trailing garbage and
    // out-of-range values are refused instead of silently truncated into
    // a different experiment.
    const detail::SpecReader flags({}, {});
    const auto next_int = [&](const char* flag, int minimum) {
      return flags.read_int(flag, next_value(flag), minimum);
    };
    try {
      if (arg == "--help" || arg == "-h") {
        return usage(std::cout, 0);
      } else if (arg == "--list") {
        options.list = true;
      } else if (arg == "--all") {
        options.all = true;
      } else if (arg == "--runs") {
        options.scenario.runs = next_int("--runs", 0);
      } else if (arg == "--seed") {
        options.scenario.base_seed =
            flags.read_u64("--seed", next_value("--seed"));
      } else if (arg == "--sd") {
        options.scenario.search_distance = next_int("--sd", 0);
      } else if (arg == "--set") {
        const std::string value = next_value("--set");
        const std::size_t eq = value.find('=');
        if (eq == std::string::npos || eq == 0) {
          std::cerr << "--set expects KEY=VALUE, e.g. "
                       "topology=udisk:n=400,r=10\n";
          return 2;
        }
        options.scenario.sets.emplace_back(value.substr(0, eq),
                                           value.substr(eq + 1));
      } else if (arg == "--threads") {
        options.threads = next_int("--threads", 0);
      } else if (arg == "--smoke") {
        options.scenario.smoke = true;
      } else if (arg == "--progress") {
        options.progress = true;
      } else if (arg == "--json") {
        options.json = true;
      } else if (arg == "--out-dir") {
        options.out_dir = next_value("--out-dir");
      } else if (arg == "--out") {
        options.merge_out = next_value("--out");
      } else if (arg == "--cache") {
        options.cache_dir = next_value("--cache");
      } else if (arg == "--cache-readonly") {
        options.cache_readonly = true;
      } else if (arg == "--workers") {
        options.workers = next_int("--workers", 1);
      } else if (arg == "--worker-threads") {
        options.worker_threads = next_int("--worker-threads", 1);
      } else if (arg == "--fleet-dir") {
        options.fleet_dir = next_value("--fleet-dir");
      } else if (arg == "--worker-name") {
        options.worker_name = next_value("--worker-name");
      } else if (arg == "--heartbeat-ms") {
        options.heartbeat_ms = next_int("--heartbeat-ms", 1);
      } else if (arg == "--fail-on-drift") {
        options.fail_on_drift = true;
      } else if (arg == "--deterministic") {
        options.deterministic = true;
      } else if (arg == "--shard") {
        // Same strictness as the other numeric flags: a typo must not
        // silently run the wrong shard of an hours-long sweep.
        const std::string value = next_value("--shard");
        const detail::SpecReader shard("--shard", value);
        const auto [index, count] = detail::SpecReader::split(value, '/');
        if (!count) {
          shard.fail("expected I/N, e.g. 0/4");
        }
        options.shard_count = shard.read_int("N", *count, 1);
        options.shard_index = shard.read_int("I", index, 0);
        if (options.shard_index >= options.shard_count) {
          shard.fail("I must be < N");
        }
      } else if (!arg.empty() && arg.front() == '-') {
        std::cerr << "unknown argument " << arg << '\n';
        return usage(std::cerr, 2);
      } else {
        options.names.push_back(arg);
      }
    } catch (const std::exception& error) {
      std::cerr << "bad value for " << arg << ": " << error.what() << '\n';
      return 2;
    }
  }

  try {
    if (command == "list" || options.list) {
      return list_scenarios(std::cout);
    }
    if (command == "report") {
      return report_files(options.names, options.scenario);
    }
    if (command == "merge") {
      return merge_files(options.names, options.merge_out);
    }
    if (command == "cache") {
      return cache_command(options.names);
    }
    if (command == "compare") {
      return compare_command(options);
    }
    if (options.cache_readonly && options.cache_dir.empty()) {
      std::cerr << "--cache-readonly requires --cache DIR\n";
      return 2;
    }
    if (command == "fleet") {
      return fleet_command(options);
    }
    if (command == "fleet-worker") {
      return fleet_worker_command(options);
    }
    return run_scenarios(options);
  } catch (const std::exception& error) {
    std::cerr << "slpdas_bench: " << error.what() << '\n';
    return 1;
  }
}
