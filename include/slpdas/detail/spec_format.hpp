// The spec-string layer's one reader, shared by TopologySpec,
// AttackerSpec, the protocol and radio specs, the custom scenario's --set
// values, report labels and slpdas_bench's numeric flags. It splits
// `kind[:rest]` and `key=value,...` lists (refusing a missing '=', an
// unknown or a repeated key), reads every number through one strict,
// locale-free, bounded std::from_chars reader (so garbage, NaN and
// infinities are refused alike), and words every error one way:
//   <what> '<text>': <key> must be <bound>, got '<token>'
// Canonical strings print doubles through format_double_shortest, so
// every value a spec prints reads back exactly.
#pragma once

#include <algorithm>
#include <array>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace slpdas::detail {

/// Shortest decimal form that round-trips to the exact double ("4.5",
/// "0.125", "inf") — the canonical-print discipline every spec shares.
inline std::string format_double_shortest(double value) {
  char buffer[32];
  const auto [end, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc()) {
    return "0";  // unreachable: 32 chars hold every double
  }
  return std::string(buffer, end);
}

/// Shell-friendly '_' -> '-' normalisation for spec names (slp_das,
/// casino_lab, min_slot); numeric tokens never contain underscores.
inline std::string normalize_spec_name(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    if (c == '_') {
      c = '-';
    }
  }
  return out;
}

/// An interval of admissible doubles, each end open or closed. NaN lies
/// in no interval, and an open infinite end refuses that infinity.
struct Interval {
  double low;
  double high;
  bool low_open;
  bool high_open;

  [[nodiscard]] constexpr bool contains(double value) const noexcept {
    return (low_open ? value > low : value >= low) &&
           (high_open ? value < high : value <= high);
  }

  /// "(0, inf)", "[0, 1]", "(1, 2)".
  [[nodiscard]] std::string to_string() const {
    return (low_open ? "(" : "[") + format_double_shortest(low) + ", " +
           format_double_shortest(high) + (high_open ? ")" : "]");
  }
};

/// Finite and positive: distances, areas, spacings.
inline constexpr Interval kPositive{
    0.0, std::numeric_limits<double>::infinity(), true, true};

/// Reads one spec string, naming it in every error.
class SpecReader {
 public:
  /// `what` names the grammar ("topology spec") and `text` the whole
  /// string being read; both must outlive the reader. An empty `what`
  /// drops the "<what> '<text>': " prefix (a CLI flag names itself).
  SpecReader(std::string_view what, std::string_view text) noexcept
      : what_(what), text_(text) {}

  /// Throws std::invalid_argument "<what> '<text>': <why>".
  [[noreturn]] void fail(std::string_view why) const {
    std::string message;
    if (!what_.empty()) {
      message.append(what_).append(" '").append(text_).append("': ");
    }
    throw std::invalid_argument(message.append(why));
  }

  /// Splits `kind[:rest]` (or any `head<sep>rest`) at the first `sep`;
  /// without a `sep`, `rest` is empty.
  static std::pair<std::string_view, std::optional<std::string_view>> split(
      std::string_view text, char sep = ':') noexcept {
    const std::size_t at = text.find(sep);
    if (at == std::string_view::npos) {
      return {text, std::nullopt};
    }
    return {text.substr(0, at), text.substr(at + 1)};
  }

  /// Reads a `key=value,...` list whose keys are drawn from `keys`, each
  /// at most once. Returns each key's value token in `keys` order, empty
  /// where the key is absent.
  template <std::size_t N>
  std::array<std::optional<std::string_view>, N> fields(
      std::string_view list, const std::string_view (&keys)[N]) const {
    std::array<std::optional<std::string_view>, N> values;
    for (std::size_t start = 0; start <= list.size();) {
      const std::size_t comma = std::min(list.find(',', start), list.size());
      const std::string_view item = list.substr(start, comma - start);
      start = comma + 1;
      const std::size_t eq = item.find('=');
      if (eq == std::string_view::npos) {
        fail("expected key=value, got '" + std::string(item) + "'");
      }
      const std::string_view key = item.substr(0, eq);
      std::size_t at = 0;
      while (at < N && keys[at] != key) {
        ++at;
      }
      if (at == N) {
        std::string valid;
        for (const std::string_view k : keys) {
          valid.append(valid.empty() ? "" : ", ").append(k);
        }
        fail("unknown key '" + std::string(key) + "' (valid: " + valid +
             ")");
      }
      if (values[at]) {
        fail("repeated key '" + std::string(key) + "'");
      }
      values[at] = item.substr(eq + 1);
    }
    return values;
  }

  /// An integer >= `minimum`.
  int read_int(std::string_view key, std::string_view token,
               int minimum) const {
    const std::optional<int> value = parse<int>(token);
    if (!value || *value < minimum) {
      refuse(key, token,
             (value ? ">= " : "an integer >= ") + std::to_string(minimum));
    }
    return *value;
  }

  /// An unsigned 64-bit integer (no sign).
  std::uint64_t read_u64(std::string_view key, std::string_view token) const {
    const std::optional<std::uint64_t> value = parse<std::uint64_t>(token);
    if (!value) {
      refuse(key, token, "an unsigned integer");
    }
    return *value;
  }

  /// A double inside `range` (so never NaN, and finite unless `range`
  /// holds an infinity). Adding 0.0 turns -0 into +0, so every accepted
  /// value prints back canonically: `p=-0` and `p=0` are one spec.
  double read_double(std::string_view key, std::string_view token,
                     const Interval& range) const {
    const std::optional<double> value = parse<double>(token);
    if (!value || !range.contains(*value)) {
      refuse(key, token, (value ? "in " : "a number in ") + range.to_string());
    }
    return *value + 0.0;
  }

 private:
  [[noreturn]] void refuse(std::string_view key, std::string_view token,
                           const std::string& bound) const {
    fail(std::string(key) + " must be " + bound + ", got '" +
         std::string(token) + "'");
  }

  /// Whole-token parse; empty on garbage, a partial consume or overflow.
  template <typename T>
  static std::optional<T> parse(std::string_view token) {
    T value{};
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc() || ptr != token.data() + token.size()) {
      return std::nullopt;
    }
    return value;
  }

  std::string_view what_;
  std::string_view text_;
};

}  // namespace slpdas::detail
