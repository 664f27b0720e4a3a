// Scenario registry: registration semantics, and an end-to-end smoke of
// every built-in scenario — each one expands a grid, runs through
// core::Sweep, serialises schema-valid JSON, round-trips, and renders its
// report without error.
#include "slpdas/core/scenario.hpp"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace slpdas::core {
namespace {

const char* const kBuiltinNames[] = {
    "fig5a",       "fig5b",          "cmp_phantom", "abl_noise",
    "abl_attacker", "abl_schedulers", "abl_safety",  "table1",
    "message_overhead", "perf_sim",   "perf_verify", "scal_grid",
    "custom",
};

Scenario dummy_scenario(std::string name) {
  Scenario scenario;
  scenario.name = std::move(name);
  scenario.make_cells = [](const ScenarioOptions&) {
    return std::vector<SweepCell>{};
  };
  scenario.report = [](std::ostream&, const SweepJson&,
                       const ScenarioOptions&) { return 0; };
  return scenario;
}

TEST(ScenarioRegistryTest, RegistersAllBuiltins) {
  ScenarioRegistry registry;
  register_builtin_scenarios(registry);
  EXPECT_EQ(registry.scenarios().size(), std::size(kBuiltinNames));
  for (const char* name : kBuiltinNames) {
    EXPECT_NE(registry.find(name), nullptr) << name;
  }
  EXPECT_EQ(registry.find("no_such_scenario"), nullptr);
}

TEST(ScenarioRegistryTest, BuiltinRegistrationIsIdempotent) {
  ScenarioRegistry registry;
  register_builtin_scenarios(registry);
  const std::size_t count = registry.scenarios().size();
  register_builtin_scenarios(registry);
  EXPECT_EQ(registry.scenarios().size(), count);
}

TEST(ScenarioRegistryTest, RejectsBadRegistrations) {
  ScenarioRegistry registry;
  registry.add(dummy_scenario("ok"));
  EXPECT_THROW(registry.add(dummy_scenario("ok")), std::invalid_argument);
  EXPECT_THROW(registry.add(dummy_scenario("")), std::invalid_argument);
  Scenario no_cells = dummy_scenario("no_cells");
  no_cells.make_cells = nullptr;
  EXPECT_THROW(registry.add(std::move(no_cells)), std::invalid_argument);
  Scenario no_report = dummy_scenario("no_report");
  no_report.report = nullptr;
  EXPECT_THROW(registry.add(std::move(no_report)), std::invalid_argument);
}

TEST(ScenarioOptionsTest, RunsResolveExplicitOverSmokeOverDefault) {
  // Scenario::cells is the one place a cell's run count is set: whatever
  // make_cells leaves in config.runs is overwritten.
  Scenario runs = dummy_scenario("runs");
  runs.default_runs = 100;
  runs.make_cells = [](const ScenarioOptions&) {
    ExperimentConfig config;
    config.runs = 3;
    SweepGrid grid(config);
    grid.axis("cell", {{"0", nullptr}, {"1", nullptr}});
    return grid.expand();
  };
  const auto resolved = [&runs](const ScenarioOptions& options) {
    std::vector<int> counts;
    for (const SweepCell& cell : runs.cells(options)) {
      counts.push_back(cell.config.runs);
    }
    return counts;
  };
  ScenarioOptions options;
  EXPECT_EQ(resolved(options), (std::vector<int>{100, 100}));
  options.smoke = true;
  EXPECT_EQ(resolved(options), (std::vector<int>{1, 1}));
  options.runs = 7;
  EXPECT_EQ(resolved(options), (std::vector<int>{7, 7}));

  Scenario scenario = dummy_scenario("seeded");
  scenario.default_seed = 2017;
  EXPECT_EQ(scenario.resolved_seed(ScenarioOptions{}), 2017u);
  ScenarioOptions seeded;
  seeded.base_seed = 5;
  EXPECT_EQ(scenario.resolved_seed(seeded), 5u);
}

TEST(ScenarioSmokeTest, EveryBuiltinRunsEndToEndAndEmitsValidJson) {
  ScenarioRegistry registry;
  register_builtin_scenarios(registry);

  ScenarioOptions options;
  options.smoke = true;
  ScenarioExecution execution;
  execution.deterministic_timing = true;
  ThreadPool pool(2);

  for (const Scenario& scenario : registry.scenarios()) {
    SCOPED_TRACE(scenario.name);

    // Smoke grids are non-empty, single-run, and label-unique.
    const std::vector<SweepCell> cells = scenario.cells(options);
    ASSERT_FALSE(cells.empty());
    std::set<std::string> labels;
    for (const SweepCell& cell : cells) {
      EXPECT_EQ(cell.config.runs, 1);
      EXPECT_TRUE(labels.insert(cell.label).second) << cell.label;
    }

    const SweepJson document =
        run_scenario(scenario, options, execution, pool);
    EXPECT_EQ(document.name, scenario.name);
    EXPECT_EQ(document.schema, "slpdas.sweep.v2");
    EXPECT_EQ(document.cells.size(), cells.size());
    EXPECT_EQ(document.cells_total, cells.size());

    // The document round-trips through the serialised schema...
    std::stringstream stream;
    write_sweep_json(stream, document);
    const SweepJson reparsed = read_sweep_json(stream);
    EXPECT_EQ(reparsed.name, scenario.name);
    ASSERT_EQ(reparsed.cells.size(), document.cells.size());
    for (std::size_t i = 0; i < reparsed.cells.size(); ++i) {
      EXPECT_EQ(reparsed.cells[i].label, document.cells[i].label);
      EXPECT_EQ(reparsed.cells[i].cell_seed, document.cells[i].cell_seed);
    }
    // ...and a rewrite of the reparse is byte-stable (merge depends on it).
    std::ostringstream rewritten;
    write_sweep_json(rewritten, reparsed);
    EXPECT_EQ(rewritten.str(), stream.str());

    // The report renders from the reparsed document and succeeds.
    std::ostringstream report;
    EXPECT_EQ(scenario.report(report, reparsed, options), 0);
    EXPECT_FALSE(report.str().empty());
  }
}

TEST(ScenarioSmokeTest, ScenariosShardAndMergeLikeAnySweep) {
  // One representative scenario through the multi-process path: two
  // deterministic shards merge into the unsharded document bit for bit.
  ScenarioRegistry registry;
  register_builtin_scenarios(registry);
  const Scenario* scenario = registry.find("message_overhead");
  ASSERT_NE(scenario, nullptr);

  ScenarioOptions options;
  options.smoke = true;
  ThreadPool pool(2);

  ScenarioExecution unsharded;
  unsharded.deterministic_timing = true;
  std::ostringstream full;
  write_sweep_json(full, run_scenario(*scenario, options, unsharded, pool));

  std::vector<SweepJson> shards;
  for (int i = 0; i < 2; ++i) {
    ScenarioExecution execution;
    execution.deterministic_timing = true;
    execution.shard_index = i;
    execution.shard_count = 2;
    shards.push_back(run_scenario(*scenario, options, execution, pool));
  }
  std::ostringstream merged;
  write_sweep_json(merged, merge_sweep_shards(std::move(shards)));
  EXPECT_EQ(merged.str(), full.str());
}

TEST(CustomScenarioTest, ComposesCellsFromRepeatedSets) {
  ScenarioRegistry registry;
  register_builtin_scenarios(registry);
  const Scenario* custom = registry.find("custom");
  ASSERT_NE(custom, nullptr);
  EXPECT_TRUE(custom->accepts_sets);

  // Two topologies x two protocols, values canonicalised by the spec
  // parsers (slp_das -> slp-das, the grid spelled with its default
  // spacing collapses to the canonical form).
  ScenarioOptions options;
  options.smoke = true;
  options.sets = {{"topology", "grid:5x5:spacing=4.5"},
                  {"topology", "line:6"},
                  {"protocol", "protectionless-das"},
                  {"protocol", "slp_das"},
                  {"attacker", "R=2,D=min-slot"}};
  const std::vector<SweepCell> cells = custom->make_cells(options);
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].label,
            "topology=grid:5/protocol=protectionless-das/"
            "attacker=R=2,H=0,M=1,D=min-slot");
  EXPECT_EQ(cells[1].label,
            "topology=grid:5/protocol=slp-das/"
            "attacker=R=2,H=0,M=1,D=min-slot");
  EXPECT_EQ(cells[2].coordinates[0].second, "line:6");
  // The protocol axis is unseeded: both protocols of one topology share
  // one seed stream (common random numbers).
  EXPECT_EQ(cells[0].seed_label, cells[1].seed_label);
  EXPECT_NE(cells[0].seed_label, cells[2].seed_label);
  EXPECT_EQ(cells[1].config.protocol, ProtocolKind::kSlpDas);
  EXPECT_EQ(cells[1].config.attacker.messages_per_move, 2);
  EXPECT_EQ(cells[1].config.attacker.decision,
            attacker::Decision::kMinSlot);
}

TEST(CustomScenarioTest, RunsAUnitDiskExperimentEndToEnd) {
  // The ISSUE's acceptance shape, smoke-sized: a non-grid topology and a
  // protocol composed purely from spec strings, through the sweep, the
  // serialised document (config block included) and the report.
  ScenarioRegistry registry;
  register_builtin_scenarios(registry);
  const Scenario* custom = registry.find("custom");
  ASSERT_NE(custom, nullptr);

  ScenarioOptions options;
  options.smoke = true;
  options.sets = {{"topology", "udisk:n=24,r=32,area=60,seed=7"},
                  {"protocol", "slp-das"}};
  ScenarioExecution execution;
  execution.deterministic_timing = true;
  ThreadPool pool(2);
  const SweepJson document =
      run_scenario(*custom, options, execution, pool);
  ASSERT_EQ(document.cells.size(), 1u);
  const SweepJsonCell& cell = document.cells[0];
  EXPECT_EQ(cell.label,
            "topology=udisk:n=24,r=32,area=60,seed=7/protocol=slp-das");
  ASSERT_TRUE(cell.has_config);
  EXPECT_EQ(cell.config_topology, "udisk:n=24,r=32,area=60,seed=7");
  EXPECT_EQ(cell.config_protocol, "slp-das");
  EXPECT_EQ(cell.config_attacker, "R=1,H=0,M=1,D=first-heard");
  EXPECT_EQ(cell.config_radio, "casino-lab");
  EXPECT_EQ(cell.capture_trials, 1u);

  // Round-trips byte-stably, config block included.
  std::stringstream stream;
  write_sweep_json(stream, document);
  const SweepJson reparsed = read_sweep_json(stream);
  ASSERT_EQ(reparsed.cells.size(), 1u);
  EXPECT_EQ(reparsed.cells[0].config_topology, cell.config_topology);
  std::ostringstream rewritten;
  write_sweep_json(rewritten, reparsed);
  EXPECT_EQ(rewritten.str(), stream.str());

  std::ostringstream report;
  EXPECT_EQ(custom->report(report, reparsed, options), 0);
  EXPECT_NE(report.str().find("udisk:n=24,r=32,area=60,seed=7"),
            std::string::npos);
}

TEST(CustomScenarioTest, RejectsUnknownSetKeysAndBadSpecs) {
  ScenarioRegistry registry;
  register_builtin_scenarios(registry);
  const Scenario* custom = registry.find("custom");
  ASSERT_NE(custom, nullptr);
  ScenarioOptions options;
  options.sets = {{"topolgy", "grid:11"}};  // typo'd key
  EXPECT_THROW((void)custom->make_cells(options), std::invalid_argument);
  options.sets = {{"topology", "grid:4"}};  // even square side
  EXPECT_THROW((void)custom->make_cells(options), std::invalid_argument);
  options.sets = {{"attacker", "Z=3"}};  // unknown attacker key
  EXPECT_THROW((void)custom->make_cells(options), std::invalid_argument);
  options.sets = {{"radio", "noisy"}};  // unknown radio
  EXPECT_THROW((void)custom->make_cells(options), std::invalid_argument);
  // Non-finite numbers, repeated keys, and a Cs outside Eq. 1's (1, 2)
  // are refused while the grid is built, before any cell runs.
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"radio", "lossy:p=nan"},
           {"topology", "grid:7:spacing=inf"},
           {"topology", "udisk:n=30,r=inf"},
           {"topology", "udisk:n=30,r=10,n=40"},
           {"attacker", "R=2,R=3"},
           {"cs", "inf"},
           {"cs", "nan"},
           {"cs", "2.5"},
           {"cs", "1"},
           {"sd", "0"}}) {
    SCOPED_TRACE(key + "=" + value);
    options.sets = {{"cs", "1.5"}, {key, value}};
    EXPECT_THROW((void)custom->make_cells(options), std::invalid_argument);
  }
}

TEST(CustomScenarioTest, TwoSpellingsOfOneValueAreOneDuplicateCell) {
  // Values print canonically, so two spellings of one value give one
  // label, and the sweep refuses the grid before any cell runs instead
  // of simulating the same experiment twice under two seeds.
  ScenarioRegistry registry;
  register_builtin_scenarios(registry);
  const Scenario* custom = registry.find("custom");
  ASSERT_NE(custom, nullptr);
  const struct {
    const char* key;
    const char* first;
    const char* second;
    const char* label;
  } kPairs[] = {{"cs", "1.5", "1.50", "topology=grid:7/cs=1.5/"},
                {"radio", "lossy:p=-0", "lossy:p=0",
                 "topology=grid:7/radio=lossy:p=0/"}};
  for (const auto& pair : kPairs) {
    SCOPED_TRACE(pair.second);
    ScenarioOptions options;
    options.smoke = true;
    options.sets = {{pair.key, pair.first}, {pair.key, pair.second}};
    const std::vector<SweepCell> cells = custom->cells(options);
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells[0].label, cells[2].label);
    EXPECT_EQ(cells[0].label.rfind(pair.label, 0), 0u) << cells[0].label;
    try {
      (void)run_sweep(cells, SweepOptions{});
      ADD_FAILURE() << "the duplicate cell ran";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("duplicate cell label"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(ScenarioOptionsTest, UnsupportedOptionsAreNamedNotIgnored) {
  ScenarioRegistry registry;
  register_builtin_scenarios(registry);
  const Scenario* fig5a = registry.find("fig5a");
  const Scenario* table1 = registry.find("table1");
  const Scenario* custom = registry.find("custom");
  ASSERT_NE(fig5a, nullptr);
  ASSERT_NE(table1, nullptr);
  ASSERT_NE(custom, nullptr);

  ScenarioOptions plain;
  EXPECT_EQ(unsupported_option(*table1, plain, registry), "");

  ScenarioOptions with_sd;
  with_sd.search_distance = 5;
  EXPECT_EQ(unsupported_option(*fig5a, with_sd, registry), "");
  const std::string sd_problem =
      unsupported_option(*table1, with_sd, registry);
  EXPECT_NE(sd_problem.find("table1"), std::string::npos) << sd_problem;
  EXPECT_NE(sd_problem.find("--sd"), std::string::npos) << sd_problem;

  ScenarioOptions with_sets;
  with_sets.sets = {{"topology", "grid:11"}};
  EXPECT_EQ(unsupported_option(*custom, with_sets, registry), "");
  const std::string set_problem =
      unsupported_option(*fig5a, with_sets, registry);
  EXPECT_NE(set_problem.find("--set"), std::string::npos) << set_problem;
}

TEST(ScenarioReportTest, RejectsTamperedSideLabelsInsteadOfFeedingMakeGrid) {
  // Reports parse axis labels out of reloaded (possibly hand-edited or
  // merged) documents. std::stoi let "-5" or "11x11" through, handing
  // make_grid a negative or truncated side; the strict parser must throw
  // an error naming the bad label instead.
  ScenarioRegistry registry;
  register_builtin_scenarios(registry);
  const Scenario* scenario = registry.find("scal_grid");
  ASSERT_NE(scenario, nullptr);

  ScenarioOptions options;
  options.smoke = true;
  ScenarioExecution execution;
  execution.deterministic_timing = true;
  ThreadPool pool(2);
  SweepJson document = run_scenario(*scenario, options, execution, pool);
  ASSERT_FALSE(document.cells.empty());

  for (const std::string bad : {"-5", "0", "11x11", " 7", ""}) {
    SweepJson tampered = document;
    for (SweepJsonCell& cell : tampered.cells) {
      for (auto& [axis, value] : cell.coordinates) {
        if (axis == "side") {
          value = bad;
        }
      }
    }
    std::ostringstream report;
    try {
      (void)scenario->report(report, tampered, options);
      FAIL() << "expected std::invalid_argument for side label '" << bad
             << "'";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("'" + bad + "'"),
                std::string::npos)
          << error.what();
    }
  }
}

/// Whitespace-delimited tokens that are exactly "-" — the placeholder the
/// perf reports render for numbers a cell does not carry. Label dashes
/// (slp-das, protectionless-das) are embedded in longer tokens and don't
/// count.
int dash_tokens(const std::string& line) {
  std::istringstream in(line);
  int dashes = 0;
  std::string token;
  while (in >> token) {
    dashes += token == "-" ? 1 : 0;
  }
  return dashes;
}

TEST(ScenarioReportTest, MixedCachedAndComputedPerfCellsRenderDashes) {
  // Cache hits (and merged shards from a --deterministic run) restore a
  // cell's metrics but not its wall clock or perf block. A report over
  // such a mixed document must render '-' placeholders in the cached row
  // and real numbers everywhere else — not 0.00 noise, and not an error.
  ScenarioRegistry registry;
  register_builtin_scenarios(registry);

  ScenarioOptions options;
  options.smoke = true;
  ThreadPool pool(2);

  // scenario name -> number of columns the report draws from the perf
  // block or wall clock (and so must render '-' for the cached row).
  const std::pair<const char*, int> cases[] = {{"perf_sim", 4},
                                               {"scal_grid", 2}};
  for (const auto& [name, dash_columns] : cases) {
    SCOPED_TRACE(name);
    const Scenario* scenario = registry.find(name);
    ASSERT_NE(scenario, nullptr);
    ScenarioExecution execution;  // wall-clock timing: perf blocks on
    SweepJson document = run_scenario(*scenario, options, execution, pool);
    ASSERT_FALSE(document.cells.empty());
    for (const SweepJsonCell& cell : document.cells) {
      ASSERT_TRUE(cell.has_perf) << cell.label;
      ASSERT_GT(cell.wall_seconds, 0.0) << cell.label;
    }

    // Guarantee the document is mixed even for single-cell smoke grids,
    // then strip the first cell down to what a cache hit restores.
    document.cells.push_back(document.cells.front());
    SweepJsonCell& cached = document.cells.front();
    cached.has_perf = false;
    cached.perf_events = 0;
    cached.perf_deliveries = 0;
    cached.perf_timer_fires = 0;
    cached.perf_events_per_sec = 0.0;
    cached.wall_seconds = 0.0;

    std::ostringstream report;
    ASSERT_EQ(scenario->report(report, document, options), 0);

    // Exactly one rendered line — the cached cell's row — carries '-'
    // placeholders, and it carries one per perf-derived column.
    std::istringstream lines(report.str());
    std::string line;
    int lines_with_dashes = 0;
    int dashes_in_row = 0;
    while (std::getline(lines, line)) {
      const int dashes = dash_tokens(line);
      if (dashes > 0) {
        ++lines_with_dashes;
        dashes_in_row = dashes;
      }
    }
    EXPECT_EQ(lines_with_dashes, 1) << report.str();
    EXPECT_EQ(dashes_in_row, dash_columns) << report.str();
  }
}

TEST(ScenarioReportTest, EveryReportMatchesTheGolden) {
  // Every report's text, rendered from its --runs 1 --deterministic
  // document after a write/read round trip, against a committed golden.
  // perf_verify is left out: its report wall-clocks the verifier. On a
  // mismatch the rendered text is written out, so the change shows as a
  // diff against tests/golden/scenario_reports.txt.
  ScenarioRegistry registry;
  register_builtin_scenarios(registry);
  ScenarioOptions options;
  options.runs = 1;
  ScenarioExecution execution;
  execution.deterministic_timing = true;
  ThreadPool pool(2);

  std::ostringstream rendered;
  for (const Scenario& scenario : registry.scenarios()) {
    if (scenario.name == "perf_verify") {
      continue;
    }
    std::stringstream stream;
    write_sweep_json(stream, run_scenario(scenario, options, execution, pool));
    const SweepJson reparsed = read_sweep_json(stream);
    std::ostringstream report;
    const int code = scenario.report(report, reparsed, options);
    rendered << "=== " << scenario.name << " (exit " << code << ")\n"
             << report.str() << '\n';
  }

  const std::string golden_path =
      std::string(SLPDAS_GOLDEN_DIR) + "/scenario_reports.txt";
  std::ostringstream golden;
  golden << std::ifstream(golden_path, std::ios::binary).rdbuf();
  if (rendered.str() != golden.str()) {
    const std::string actual = ::testing::TempDir() + "scenario_reports.txt";
    std::ofstream(actual, std::ios::binary) << rendered.str();
    FAIL() << "reports differ from " << golden_path << "; rendered: "
           << actual;
  }
}

TEST(ScenarioReportTest, RequireCellNamesTheMissingCoordinates) {
  // A document holding side=99 for the other protocol only: each wanted
  // coordinate matches some cell, but no one cell matches both.
  SweepJson document;
  document.name = "fig5a";
  SweepJsonCell cell;
  cell.coordinates = {{"side", "99"}, {"protocol", "protectionless-das"}};
  document.cells.push_back(cell);
  EXPECT_EQ(&require_cell(document, {{"side", "99"}}), &document.cells[0]);
  try {
    (void)require_cell(document, {{"side", "99"}, {"protocol", "slp-das"}});
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("'fig5a'"), std::string::npos) << what;
    EXPECT_NE(what.find("side=99 protocol=slp-das"), std::string::npos)
        << what;
  }
}

}  // namespace
}  // namespace slpdas::core
