#include "slpdas/core/scenario.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "atomic_file.hpp"
#include "scenarios/common.hpp"

namespace slpdas::core {

int resolved_runs(const ScenarioOptions& options, int scenario_default) {
  if (options.runs > 0) {
    return options.runs;
  }
  return options.smoke ? 1 : scenario_default;
}

ScenarioRegistry& ScenarioRegistry::global() {
  static ScenarioRegistry registry;
  return registry;
}

void ScenarioRegistry::add(Scenario scenario) {
  if (scenario.name.empty()) {
    throw std::invalid_argument("scenario registry: empty name");
  }
  if (!scenario.make_cells || !scenario.report) {
    throw std::invalid_argument("scenario registry: scenario '" +
                                scenario.name +
                                "' is missing make_cells or report");
  }
  if (find(scenario.name) != nullptr) {
    throw std::invalid_argument("scenario registry: duplicate name '" +
                                scenario.name + "'");
  }
  scenarios_.push_back(std::move(scenario));
}

const Scenario* ScenarioRegistry::find(std::string_view name) const {
  for (const Scenario& scenario : scenarios_) {
    if (scenario.name == name) {
      return &scenario;
    }
  }
  return nullptr;
}

void register_builtin_scenarios(ScenarioRegistry& registry) {
  if (registry.find("fig5a") != nullptr) {
    return;  // already registered (idempotent for tests and the CLI)
  }
  scenarios::register_fig5(registry);
  scenarios::register_comparison(registry);
  scenarios::register_ablations(registry);
  scenarios::register_tables(registry);
  scenarios::register_perf(registry);
  scenarios::register_scaling(registry);
  scenarios::register_custom(registry);
}

std::string unsupported_option(const Scenario& scenario,
                               const ScenarioOptions& options,
                               const ScenarioRegistry& registry) {
  const auto hint = [&registry](const char* flag,
                                bool (*accepts)(const Scenario&)) {
    std::string scenarios;
    for (const Scenario& s : registry.scenarios()) {
      if (accepts(s)) {
        scenarios += scenarios.empty() ? "" : ", ";
        scenarios += s.name;
      }
    }
    return std::string(flag) + " (honoured by: " +
           (scenarios.empty() ? "no registered scenario" : scenarios) + ")";
  };
  if (options.search_distance != 0 && !scenario.accepts_search_distance) {
    return "scenario '" + scenario.name + "' does not honour " +
           hint("--sd", [](const Scenario& s) {
             return s.accepts_search_distance;
           });
  }
  if (!options.sets.empty() && !scenario.accepts_sets) {
    return "scenario '" + scenario.name + "' does not honour " +
           hint("--set", [](const Scenario& s) { return s.accepts_sets; });
  }
  return "";
}

namespace {

/// Reads the stream file whole into `text`. Returns false only when the
/// file does not exist (a fresh start). A file that exists but cannot be
/// opened or read throws instead: treating a failed READ as "no stream"
/// would send the caller down the fresh-start path, which truncates the
/// file and destroys every completed cell it holds.
bool slurp_existing_file(const std::string& path, std::string& text) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (!std::filesystem::exists(path)) {
      return false;
    }
    throw std::runtime_error("stream file " + path +
                             " exists but cannot be opened for reading");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    throw std::runtime_error("read error on stream file " + path);
  }
  text = buffer.str();
  return true;
}

/// Throws std::runtime_error naming the cell and the field when a record
/// kept from a resumed stream describes a different experiment than
/// `cell`, this run's cell at the record's index. The header's grid hash
/// covers labels and run counts but not the cells' configs, so a resume
/// with the same labels on, say, another radio passes the header check.
void verify_kept_record(const SweepJsonCell& kept, const SweepCell& cell) {
  const auto check = [&kept](const char* field, const std::string& have,
                             const std::string& want) {
    if (have != want) {
      throw std::runtime_error(
          "cell stream: cell " + std::to_string(kept.index) + " ('" +
          kept.label + "') has " + field + " '" + have +
          "' in the stream but '" + want +
          "' in this run — the stream file belongs to a different sweep");
    }
  };
  const ExperimentConfig& config = cell.config;
  check("config.topology", kept.config_topology, config.topology.to_string());
  check("config.protocol", kept.config_protocol,
        format_protocol_spec(config.protocol, config.phantom_walk_length));
  check("config.attacker", kept.config_attacker, config.attacker.to_spec());
  check("config.radio", kept.config_radio,
        format_radio_spec(config.radio, config.loss_probability));
  check("runs", std::to_string(kept.runs), std::to_string(config.runs));
}

}  // namespace

SweepJson run_scenario(const Scenario& scenario,
                       const ScenarioOptions& options,
                       const ScenarioExecution& execution, ThreadPool& pool) {
  const std::vector<SweepCell> cells = scenario.make_cells(options);
  SweepOptions sweep_options;
  sweep_options.base_seed = scenario.resolved_seed(options);
  sweep_options.progress = execution.progress;
  sweep_options.shard_index = execution.shard_index;
  sweep_options.shard_count = execution.shard_count;
  sweep_options.deterministic_timing = execution.deterministic_timing;
  sweep_options.cache = execution.cache;

  if (execution.stream_path.empty()) {
    const SweepResult sweep = run_sweep(cells, sweep_options, pool);
    return to_sweep_json(sweep, scenario.name);
  }

  // Streamed, resumable execution. The stream file is the single source
  // of truth: every completed cell is appended as one flushed JSONL
  // record, and the returned document is folded from the file afterwards.
  const std::string& path = execution.stream_path;
  CellStreamHeader header;
  header.schema = "slpdas.cell.v1";
  header.name = scenario.name;
  header.base_seed = sweep_options.base_seed;
  header.grid_hash = hash_sweep_grid(cells);
  header.shard_index = sweep_options.shard_index;
  header.shard_count = sweep_options.shard_count;
  header.cells_total = cells.size();
  header.deterministic = sweep_options.deterministic_timing;
  header.threads = pool.thread_count();

  // A file whose content holds no complete line (missing, empty, or just
  // one torn header write from a kill) starts fresh; anything else must
  // parse and describe THIS sweep.
  std::string existing_text;
  const bool file_exists = slurp_existing_file(path, existing_text);
  const bool resume =
      file_exists && existing_text.find('\n') != std::string::npos;
  if (file_exists && !resume && !existing_text.empty()) {
    // No complete line: the only content this run may overwrite is a
    // torn header its own killed predecessor left behind. Anything else
    // (a --stream path typo hitting a real file) is not ours to destroy.
    constexpr std::string_view kTornHeaderPrefix =
        "{\"schema\": \"slpdas.cell.v1\"";
    const std::string_view text(existing_text);
    const std::size_t compare = std::min(text.size(), kTornHeaderPrefix.size());
    if (text.substr(0, compare) != kTornHeaderPrefix.substr(0, compare)) {
      throw std::runtime_error(
          "stream file " + path +
          " exists but is not a slpdas.cell.v1 stream; refusing to "
          "overwrite it");
    }
  }
  std::ofstream stream;
  if (resume) {
    std::istringstream existing_in(existing_text);
    const CellStream existing = read_cell_stream(existing_in);
    verify_cell_stream_resumable(existing.header, header);
    for (const SweepJsonCell& kept : existing.cells) {
      verify_kept_record(kept, cells[static_cast<std::size_t>(kept.index)]);
    }
    // Crash-safe rewrite: re-serialise the verified whole-line content
    // (byte-stable through the single writer) and atomically replace the
    // stream with it, so a torn tail never precedes appended records and
    // a kill during the rewrite still leaves the original stream intact.
    std::ostringstream rewrite;
    write_cell_stream_header(rewrite, existing.header);
    for (const SweepJsonCell& cell : existing.cells) {
      write_cell_stream_record(rewrite, cell);
    }
    const std::string failure =
        detail::write_file_atomically(path, rewrite.str());
    if (!failure.empty()) {
      throw std::runtime_error("cannot rewrite stream file " + path +
                               " for resume: " + failure);
    }
    sweep_options.skip_cells.reserve(existing.cells.size());
    for (const SweepJsonCell& cell : existing.cells) {
      sweep_options.skip_cells.push_back(
          static_cast<std::size_t>(cell.index));
    }
    stream.open(path, std::ios::binary | std::ios::app);
    if (!stream) {
      throw std::runtime_error("cannot reopen " + path + " for appending");
    }
  } else {
    stream.open(path, std::ios::binary | std::ios::trunc);
    if (!stream) {
      throw std::runtime_error("cannot open " + path + " for writing");
    }
    write_cell_stream_header(stream, header);
    stream.flush();
  }

  sweep_options.stream = &stream;
  (void)run_sweep(cells, sweep_options, pool);
  stream.flush();
  if (!stream) {
    // ofstream state is sticky, so this catches any record write or
    // flush that failed mid-sweep (ENOSPC, a yanked volume) — surfaced
    // as the real cause instead of a confusing "cell has no record yet"
    // error from the fold below.
    throw std::runtime_error("stream write to " + path +
                             " failed — the file is missing records "
                             "(disk full?)");
  }
  stream.close();

  std::ifstream completed_in(path, std::ios::binary);
  if (!completed_in) {
    throw std::runtime_error("cannot reread " + path);
  }
  return fold_cell_stream(read_cell_stream(completed_in));
}

const SweepJsonCell& require_cell(const SweepJson& document,
                                  const std::string& label) {
  const SweepJsonCell* cell = document.find_cell(label);
  if (cell == nullptr) {
    throw std::runtime_error("sweep document '" + document.name +
                             "' is missing cell '" + label +
                             "' (unmerged shard?)");
  }
  return *cell;
}

}  // namespace slpdas::core
