#include "slpdas/core/scenario.hpp"

#include <algorithm>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "scenarios/common.hpp"

namespace slpdas::core {

std::vector<SweepCell> Scenario::cells(const ScenarioOptions& options) const {
  const int runs =
      options.runs > 0 ? options.runs : (options.smoke ? 1 : default_runs);
  std::vector<SweepCell> expanded = make_cells(options);
  for (SweepCell& cell : expanded) {
    cell.config.runs = runs;
  }
  return expanded;
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

SweepJson run_scenario(const Scenario& scenario,
                       const ScenarioOptions& options,
                       const ScenarioExecution& execution, ThreadPool& pool) {
  SweepOptions sweep_options;
  sweep_options.base_seed = scenario.resolved_seed(options);
  sweep_options.progress = execution.progress;
  sweep_options.shard_index = execution.shard_index;
  sweep_options.shard_count = execution.shard_count;
  sweep_options.deterministic_timing = execution.deterministic_timing;
  sweep_options.cache = execution.cache;
  return to_sweep_json(
      run_sweep(scenario.cells(options), sweep_options, pool),
      scenario.name);
}

const SweepJsonCell& require_cell(
    const SweepJson& document,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        coordinates) {
  for (const SweepJsonCell& cell : document.cells) {
    const bool match = std::all_of(
        coordinates.begin(), coordinates.end(), [&cell](const auto& wanted) {
          const std::string* value = cell.coordinate(wanted.first);
          return value != nullptr && *value == wanted.second;
        });
    if (match) {
      return cell;
    }
  }
  std::string missing;
  for (const auto& [axis, value] : coordinates) {
    missing += missing.empty() ? "" : " ";
    missing.append(axis).append("=").append(value);
  }
  throw std::runtime_error("sweep document '" + document.name +
                           "' is missing cell " + missing +
                           " (unmerged shard?)");
}

}  // namespace slpdas::core
