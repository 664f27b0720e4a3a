// Seeded mutation test of the spec readers: TopologySpec, AttackerSpec,
// and the protocol and radio specs.
//
// The corpus is every canonical spec that the registered scenarios' cells
// carry (default and smoke grids) plus the README's examples. Each mutant
// applies one to three byte insertions, deletions or replacements, drawn
// from the grammar's own punctuation plus digits and letters, under a
// fixed seed and budget. Every mutant must either be refused with
// std::invalid_argument, or parse to a value whose canonical string parses
// back to an equal value and prints the same string again.
#include <cstddef>
#include <cstdint>
#include <exception>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "slpdas/core/experiment.hpp"
#include "slpdas/core/scenario.hpp"
#include "slpdas/wsn/topology_spec.hpp"

namespace slpdas::core {
namespace {

constexpr std::string_view kAlphabet =
    ":,=x.-_e0123456789"
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
constexpr int kMutantsPerTarget = 10000;
constexpr std::uint64_t kSeed = 0x5eedf00d;

struct Corpus {
  std::set<std::string> topology;
  std::set<std::string> attacker;
  std::set<std::string> protocol;
  std::set<std::string> radio;
};

Corpus make_corpus() {
  // README examples (the spec tables and the custom-scenario commands).
  Corpus corpus{
      {"grid:21", "grid:15x31", "line:64", "ring:100", "udisk:n=400,r=10",
       "udisk:n=400,r=10,seed=7", "udisk:n=60,r=18,area=60,seed=7"},
      {"R=2,H=4,M=1,D=min-slot", "R=2,H=4,D=min-slot", "R=2,D=min-slot"},
      {"protectionless-das", "slp-das", "phantom-routing:h=10"},
      {"ideal", "lossy:p=0.05", "casino-lab"},
  };
  ScenarioRegistry registry;
  register_builtin_scenarios(registry);
  for (const Scenario& scenario : registry.scenarios()) {
    for (const bool smoke : {false, true}) {
      ScenarioOptions options;
      options.smoke = smoke;
      for (const SweepCell& cell : scenario.make_cells(options)) {
        const ExperimentConfig& config = cell.config;
        corpus.topology.insert(config.topology.to_string());
        corpus.attacker.insert(config.attacker.to_spec());
        corpus.protocol.insert(format_protocol_spec(
            config.protocol, config.phantom_walk_length));
        corpus.radio.insert(
            format_radio_spec(config.radio, config.loss_probability));
      }
    }
  }
  return corpus;
}

std::string mutate(std::string text, std::mt19937_64& rng) {
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const std::size_t edits = 1 + pick(3);
  for (std::size_t i = 0; i < edits; ++i) {
    const char c = kAlphabet[pick(kAlphabet.size())];
    const std::size_t op = pick(3);
    if (op == 0 || text.empty()) {
      text.insert(pick(text.size() + 1), 1, c);
    } else if (op == 1) {
      text.erase(pick(text.size()), 1);
    } else {
      text[pick(text.size())] = c;
    }
  }
  return text;
}

/// Feeds kMutantsPerTarget mutants of `seeds` (round robin) to `parse`
/// and checks the oracle, counting the mutants accepted.
template <typename Parse, typename Print>
void fuzz(const std::set<std::string>& seeds, Parse parse, Print print) {
  ASSERT_FALSE(seeds.empty());
  const std::vector<std::string> corpus(seeds.begin(), seeds.end());
  std::mt19937_64 rng(kSeed);
  int accepted = 0;
  for (int i = 0; i < kMutantsPerTarget; ++i) {
    const std::string mutant =
        mutate(corpus[static_cast<std::size_t>(i) % corpus.size()], rng);
    try {
      const auto value = parse(mutant);
      const std::string canonical = print(value);
      const auto reparsed = parse(canonical);
      EXPECT_EQ(reparsed, value) << "'" << mutant << "' -> " << canonical;
      EXPECT_EQ(print(reparsed), canonical) << "'" << mutant << "'";
      ++accepted;
    } catch (const std::invalid_argument&) {
      // Refused with the typed error: the other acceptable outcome.
    } catch (const std::exception& error) {
      ADD_FAILURE() << "'" << mutant << "' threw " << error.what();
    }
  }
  // Both outcomes occur, or the mutants exercise only one side.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kMutantsPerTarget);
}

TEST(SpecMutationTest, EveryMutantIsRefusedOrRoundTrips) {
  const Corpus corpus = make_corpus();
  fuzz(
      corpus.topology,
      [](const std::string& text) { return wsn::TopologySpec::parse(text); },
      [](const wsn::TopologySpec& spec) { return spec.to_string(); });
  fuzz(
      corpus.attacker,
      [](const std::string& text) { return AttackerSpec::parse(text); },
      [](const AttackerSpec& spec) { return spec.to_spec(); });
  fuzz(
      corpus.protocol,
      [](const std::string& text) {
        ExperimentConfig config;
        apply_protocol_spec(text, config);
        return std::pair(config.protocol, config.phantom_walk_length);
      },
      [](const std::pair<ProtocolKind, int>& value) {
        return format_protocol_spec(value.first, value.second);
      });
  fuzz(
      corpus.radio,
      [](const std::string& text) {
        ExperimentConfig config;
        apply_radio_spec(text, config);
        return std::pair(config.radio, config.loss_probability);
      },
      [](const std::pair<RadioKind, double>& value) {
        return format_radio_spec(value.first, value.second);
      });
}

}  // namespace
}  // namespace slpdas::core
