// slpdas_lint: project-specific determinism lint.
//
// The engine's headline guarantee — bit-identical sweep documents at any
// thread count, across shard/stream/cache/batch compositions — rests on
// invariants no off-the-shelf analyser knows about:
//
//   * wall-clock      — no wall-clock or ambient-randomness call (rand,
//                       std::random_device, time(), std::chrono clocks,
//                       __DATE__/__TIME__) outside the whitelisted
//                       perf-telemetry sites. Simulation behaviour must be
//                       a pure function of (config, seed).
//   * unordered-serialisation — no iteration over std::unordered_map /
//                       std::unordered_set in any file that includes a
//                       serialisation header (json.hpp, cell_record.hpp,
//                       cell_cache.hpp). Hash-order is process-dependent;
//                       iterating it on a serialisation path breaks
//                       byte-stability.
//   * float-accumulate — no float/double reduction via std::accumulate
//                       without an explicit ordered-reduction tag.
//                       Floating-point addition is non-associative, so
//                       the reduction order must be a documented choice.
//   * bare-catch      — no `catch (...)`. Swallowing unknown exceptions
//                       hides the failing cell; worker-boundary
//                       fallbacks must justify themselves with a tag.
//
// A finding is silenced by a justification tag on the same line or the
// line directly above:
//
//   // slpdas-lint: allow(wall-clock): perf telemetry, never seeds runs
//
// The reason after the colon is mandatory — a bare tag is itself a
// finding, and so is a tag naming a rule this tool does not have.
// `float-accumulate` alternatively accepts the dedicated tag
//
//   // slpdas-lint: ordered-reduction: left-to-right over sorted labels
//
// which documents the reduction order instead of excusing the call.
//
// Matching runs on a comment- and string-stripped view of each line, so
// prose in comments ("the wall clock is zeroed") and rule tables in this
// very tool never fire. The tags themselves are read from the raw line.
#pragma once

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace slpdas::lint {

struct Finding {
  std::string file;   ///< path as given (relative paths stay relative)
  std::size_t line;   ///< 1-based
  std::string rule;   ///< kebab-case rule id, stable across versions
  std::string message;
  std::string snippet;  ///< the offending source line, trimmed
};

/// Lints one in-memory file. `path` is used only for reporting.
[[nodiscard]] std::vector<Finding> lint_source(std::string_view path,
                                               std::string_view text);

/// Lints one file on disk. Throws std::runtime_error when unreadable.
[[nodiscard]] std::vector<Finding> lint_file(const std::filesystem::path& path);

/// Recursively lints every .hpp/.h/.cpp/.cc file under `root` (or the
/// single file if `root` is one), skipping any directory named
/// "fixtures". Results are sorted by (file, line) so output is stable
/// regardless of directory iteration order.
[[nodiscard]] std::vector<Finding> lint_tree(const std::filesystem::path& root);

/// One finding per line: human-readable ("file:line: [rule] message").
[[nodiscard]] std::string format_text(const std::vector<Finding>& findings);

/// One finding per line as a JSON object with keys "file", "line",
/// "rule", "message", "snippet" (the machine-readable format CI parses).
[[nodiscard]] std::string format_json(const std::vector<Finding>& findings);

}  // namespace slpdas::lint
