// Scenario registry: every paper experiment as a named, uniform sweep.
//
// A Scenario packages what used to be a stand-alone bench binary — the
// grid axes, the per-cell ExperimentConfig factory, and the metric
// extraction that renders the paper's figure or table — behind one
// interface, so a single CLI (`slpdas_bench`) can list, filter, run and
// shard all of them over one shared core::Sweep thread pool.
//
// Reports consume the serialisable SweepJson model rather than the
// in-memory SweepResult, so the same code renders a fresh run, a reloaded
// BENCH_*.json file, or a document merged from shards.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "slpdas/core/sweep.hpp"

namespace slpdas::core {

/// Knobs every registered scenario understands. Zero means "use the
/// scenario's default", so one options struct can drive all of them.
/// Scenario-SPECIFIC knobs (search_distance, sets) are only honoured by
/// scenarios that declare them (Scenario::accepts_*); passing one to any
/// other scenario is an error the CLI surfaces instead of a silent no-op.
struct ScenarioOptions {
  int runs = 0;                 ///< seeds per cell; 0 = scenario default
  std::uint64_t base_seed = 0;  ///< sweep seed; 0 = scenario default
  int search_distance = 0;      ///< SD override (fig5 family); 0 = default
  bool smoke = false;  ///< smallest grid, one run per cell (CI smoke mode)
  /// Repeated `--set key=value` axis assignments for the `custom`
  /// scenario: each distinct key becomes a grid axis, repeated keys its
  /// values, in first-appearance order.
  std::vector<std::pair<std::string, std::string>> sets;
};

/// Resolves the per-cell run count: an explicit --runs wins, smoke mode
/// means one run, otherwise the scenario default applies.
[[nodiscard]] int resolved_runs(const ScenarioOptions& options,
                                int scenario_default);

struct Scenario {
  std::string name;       ///< registry key and JSON document name
  std::string reference;  ///< paper anchor, e.g. "Figure 5(a)"
  std::string summary;    ///< one line for `slpdas_bench list`
  int default_runs = 100;
  std::uint64_t default_seed = 1;
  /// Which scenario-specific options this scenario honours. The CLI
  /// refuses an option no selected scenario declares (see
  /// unsupported_option) instead of letting it be silently ignored.
  bool accepts_search_distance = false;  ///< --sd
  bool accepts_sets = false;             ///< --set key=value
  /// Expands the scenario's grid for the given options (smoke mode picks
  /// the smallest topologies). Every cell's config.runs must already be
  /// resolved via resolved_runs().
  std::function<std::vector<SweepCell>(const ScenarioOptions&)> make_cells;
  /// Renders the human-readable figure/table from a sweep document (which
  /// may have been reloaded from disk or merged from shards). Returns a
  /// process exit code: nonzero means the scenario detected a failure
  /// (e.g. table1's parameter drift check).
  std::function<int(std::ostream&, const SweepJson&, const ScenarioOptions&)>
      report;

  [[nodiscard]] std::uint64_t resolved_seed(
      const ScenarioOptions& options) const {
    return options.base_seed != 0 ? options.base_seed : default_seed;
  }
};

class ScenarioRegistry {
 public:
  /// The process-wide registry the CLI and tests share.
  [[nodiscard]] static ScenarioRegistry& global();

  /// Registers a scenario. Throws std::invalid_argument on an empty name,
  /// a duplicate name, or missing make_cells/report callbacks.
  void add(Scenario scenario);

  [[nodiscard]] const Scenario* find(std::string_view name) const;

  /// All scenarios in registration order.
  [[nodiscard]] const std::vector<Scenario>& scenarios() const {
    return scenarios_;
  }

 private:
  std::vector<Scenario> scenarios_;
};

/// Registers the built-in paper scenarios (fig5a, fig5b, cmp_phantom,
/// abl_noise, abl_attacker, abl_schedulers, abl_safety, table1,
/// message_overhead, perf_sim, perf_verify, scal_grid) plus the
/// CLI-composable `custom` scenario. Idempotent.
void register_builtin_scenarios(
    ScenarioRegistry& registry = ScenarioRegistry::global());

/// Names the first option in `options` that `scenario` does not honour
/// (with a hint naming the scenarios in `registry` that do), or "" when
/// every provided option applies. The CLI refuses to run on a non-empty
/// result — a knob that would be silently ignored is a mis-specified
/// experiment.
[[nodiscard]] std::string unsupported_option(
    const Scenario& scenario, const ScenarioOptions& options,
    const ScenarioRegistry& registry = ScenarioRegistry::global());

/// How to execute a scenario's sweep (as opposed to WHAT to run, which is
/// ScenarioOptions): sharding, timing determinism, progress, caching.
struct ScenarioExecution {
  int shard_index = 0;
  int shard_count = 1;
  bool deterministic_timing = false;
  std::ostream* progress = nullptr;
  /// Optional content-addressed cell result cache (cell_cache.hpp),
  /// passed through to SweepOptions::cache: cells whose canonical
  /// identity is already stored are served from disk instead of being
  /// simulated. Not owned; nullptr disables caching. It is also the
  /// crash-safe resume: every computed cell is stored the moment it
  /// completes, so rerunning a killed sweep with the same cache runs only
  /// the cells that were lost — bit-identical (under deterministic
  /// timing) to an uninterrupted run.
  CellCache* cache = nullptr;
};

/// Expands the scenario's cells and runs them on the caller's pool (the
/// CLI runs every selected scenario on ONE pool), returning the JSON
/// document model named after the scenario: run_sweep + to_sweep_json.
[[nodiscard]] SweepJson run_scenario(const Scenario& scenario,
                                     const ScenarioOptions& options,
                                     const ScenarioExecution& execution,
                                     ThreadPool& pool);

/// Report helper: the cell with this label; throws std::runtime_error
/// naming the label when absent (e.g. an unmerged shard document).
[[nodiscard]] const SweepJsonCell& require_cell(const SweepJson& document,
                                                const std::string& label);

}  // namespace slpdas::core
