// slpdas_lint self-test: every rule must fire on its deliberate-violation
// fixture (tools/slpdas_lint/fixtures/), justified tags must silence
// findings, and the real source tree must be clean. The fixture files are
// never compiled — they exist to prove the lint finds what it claims to.
#include "lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

namespace {

using slpdas::lint::Finding;
using slpdas::lint::lint_source;
using slpdas::lint::lint_tree;

std::filesystem::path fixture_dir() {
  return std::filesystem::path(SLPDAS_LINT_FIXTURE_DIR);
}

std::vector<Finding> lint_fixture(const std::string& name) {
  return slpdas::lint::lint_file(fixture_dir() / name);
}

int count_rule(const std::vector<Finding>& findings, std::string_view rule) {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

TEST(LintFixtureTest, WallClockRuleFiresOnEveryForbiddenCall) {
  const auto findings = lint_fixture("violation_wall_clock.cpp");
  // random_device, system_clock, time(), srand(), rand() — and NOT the
  // tagged steady_clock telemetry site.
  EXPECT_EQ(count_rule(findings, "wall-clock"), 5) << format_text(findings);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, "wall-clock") << f.rule << ": " << f.message;
  }
}

TEST(LintFixtureTest, UnorderedIterationFiresOnlyInSerialisationFiles) {
  const auto findings = lint_fixture("violation_unordered.cpp");
  // One range-for, one .begin() loop; the tagged fold is silenced and
  // contains()/count() membership tests never fire.
  EXPECT_EQ(count_rule(findings, "unordered-serialisation"), 2)
      << format_text(findings);
}

TEST(LintFixtureTest, FloatAccumulateFiresWithoutOrderedReductionTag) {
  const auto findings = lint_fixture("violation_accumulate.cpp");
  // 0.0-seeded and double{0}-seeded calls fire; the integer reduction and
  // the tagged call do not.
  EXPECT_EQ(count_rule(findings, "float-accumulate"), 2)
      << format_text(findings);
}

TEST(LintFixtureTest, BareCatchFiresUnlessJustified) {
  const auto findings = lint_fixture("violation_catch.cpp");
  EXPECT_EQ(count_rule(findings, "bare-catch"), 2) << format_text(findings);
}

TEST(LintRuleTest, TypedCatchDoesNotFire) {
  const auto findings = lint_source(
      "a.cpp", "void f() { try { g(); } catch (const std::exception& e) {} }");
  EXPECT_TRUE(findings.empty()) << format_text(findings);
}

TEST(LintRuleTest, UnorderedIterationIgnoredOutsideSerialisationFiles) {
  // No serialisation include -> hash-order iteration is allowed (e.g. the
  // DAS slot-assignment scratch sets).
  const auto findings = lint_source(
      "das.cpp",
      "#include <unordered_set>\n"
      "int f(const std::unordered_set<int>& taken) {\n"
      "  int sum = 0;\n"
      "  for (int slot : taken) sum += slot;\n"
      "  return sum;\n"
      "}\n");
  EXPECT_TRUE(findings.empty()) << format_text(findings);
}

TEST(LintRuleTest, CommentsAndStringsNeverFire) {
  const auto findings = lint_source(
      "doc.cpp",
      "// the wall clock, rand() and time() are discussed here only\n"
      "/* std::random_device in a block comment */\n"
      "const char* kMessage = \"do not call rand() or time(nullptr)\";\n"
      "const char* kRaw = R\"(system_clock)\";\n");
  EXPECT_TRUE(findings.empty()) << format_text(findings);
}

TEST(LintRuleTest, IdentifierBoundariesRespected) {
  // capture_time(...), next_time(), SimTime, clock-ish member names: none
  // of these are the forbidden calls.
  const auto findings = lint_source(
      "sim.cpp",
      "SimTime t = capture_time(x);\n"
      "auto n = queue.next_time();\n"
      "double wall_clock_seconds = 0.0;\n");
  EXPECT_TRUE(findings.empty()) << format_text(findings);
}

TEST(LintRuleTest, AllowTagWithoutReasonIsItselfAFinding) {
  const auto findings = lint_source(
      "a.cpp",
      "// slpdas-lint: allow(wall-clock)\n"
      "auto t = std::chrono::steady_clock::now();\n");
  // The bare tag is malformed AND does not silence the wall-clock hit.
  EXPECT_EQ(count_rule(findings, "bad-tag"), 1) << format_text(findings);
  EXPECT_EQ(count_rule(findings, "wall-clock"), 1) << format_text(findings);
}

TEST(LintRuleTest, AllowTagNamingNoRuleIsItselfAFinding) {
  const auto findings = lint_source(
      "a.cpp",
      "// slpdas-lint: allow(wall-clocks): a misspelt rule name\n"
      "auto t = std::chrono::steady_clock::now();\n");
  // A tag for a rule the tool does not have (misspelt, or since removed)
  // silences nothing, so it is reported instead of lingering.
  EXPECT_EQ(count_rule(findings, "bad-tag"), 1) << format_text(findings);
  EXPECT_EQ(count_rule(findings, "wall-clock"), 1) << format_text(findings);
}

TEST(LintRuleTest, SameLineTagSilences) {
  const auto findings = lint_source(
      "a.cpp",
      "auto t = std::chrono::steady_clock::now();  "
      "// slpdas-lint: allow(wall-clock): perf telemetry only\n");
  EXPECT_TRUE(findings.empty()) << format_text(findings);
}

TEST(LintFormatTest, JsonFindingsAreOnePerLineWithStableKeys) {
  const auto findings = lint_source("a.cpp", "int f() { return rand(); }\n");
  ASSERT_EQ(findings.size(), 1u);
  const std::string json = slpdas::lint::format_json(findings);
  EXPECT_NE(json.find("\"file\": \"a.cpp\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"line\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rule\": \"wall-clock\""), std::string::npos) << json;
  EXPECT_EQ(std::count(json.begin(), json.end(), '\n'), 1) << json;
}

TEST(LintTreeTest, RealSourceTreeIsClean) {
  // The same invariant the slpdas_lint_tree CTest and the CI step gate
  // on, asserted here with per-finding diagnostics.
  const std::filesystem::path root(SLPDAS_SOURCE_ROOT);
  for (const char* dir : {"src", "include", "bench", "examples", "tools"}) {
    const auto findings = lint_tree(root / dir);
    EXPECT_TRUE(findings.empty())
        << dir << " has findings:\n"
        << format_text(findings);
  }
}

TEST(LintTreeTest, FixtureDirectoriesAreSkipped) {
  // lint_tree over tools/ must NOT surface the deliberate violations.
  const auto findings =
      lint_tree(std::filesystem::path(SLPDAS_SOURCE_ROOT) / "tools");
  EXPECT_TRUE(findings.empty()) << format_text(findings);
}

}  // namespace
