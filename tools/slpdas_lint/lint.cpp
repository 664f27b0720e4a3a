#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace slpdas::lint {

namespace {

// ---------------------------------------------------------------------------
// Lexical helpers
// ---------------------------------------------------------------------------

[[nodiscard]] bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

[[nodiscard]] std::string_view trim(std::string_view text) {
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.front())) != 0) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.back())) != 0) {
    text.remove_suffix(1);
  }
  return text;
}

/// Replaces comments and string/char literal bodies with spaces, keeping
/// line lengths and positions intact so findings report real columns of
/// real code. Carries block-comment and raw-string state across lines.
struct Stripper {
  bool in_block_comment = false;
  bool in_raw_string = false;
  std::string raw_delimiter;  // the ")delim" that closes the raw string

  [[nodiscard]] std::string strip(std::string_view line) {
    std::string out(line);
    std::size_t i = 0;
    while (i < out.size()) {
      if (in_block_comment) {
        const std::size_t end = out.find("*/", i);
        const std::size_t stop = end == std::string::npos ? out.size() : end + 2;
        for (std::size_t k = i; k < stop; ++k) {
          out[k] = ' ';
        }
        i = stop;
        in_block_comment = end == std::string::npos ? in_block_comment : false;
        if (end == std::string::npos) {
          return out;
        }
        continue;
      }
      if (in_raw_string) {
        const std::size_t end = out.find(raw_delimiter, i);
        const std::size_t stop =
            end == std::string::npos ? out.size() : end + raw_delimiter.size();
        for (std::size_t k = i; k < stop; ++k) {
          out[k] = ' ';
        }
        i = stop;
        in_raw_string = end == std::string::npos;
        continue;
      }
      const char c = out[i];
      if (c == '/' && i + 1 < out.size() && out[i + 1] == '/') {
        for (std::size_t k = i; k < out.size(); ++k) {
          out[k] = ' ';
        }
        return out;
      }
      if (c == '/' && i + 1 < out.size() && out[i + 1] == '*') {
        in_block_comment = true;
        out[i] = ' ';
        out[i + 1] = ' ';
        i += 2;
        continue;
      }
      if (c == 'R' && i + 1 < out.size() && out[i + 1] == '"' &&
          (i == 0 || !is_ident_char(out[i - 1]))) {
        const std::size_t paren = out.find('(', i + 2);
        if (paren != std::string::npos) {
          raw_delimiter = ")" + out.substr(i + 2, paren - (i + 2)) + "\"";
          in_raw_string = true;
          for (std::size_t k = i; k <= paren; ++k) {
            out[k] = ' ';
          }
          i = paren + 1;
          continue;
        }
      }
      if (c == '"' || c == '\'') {
        const char quote = c;
        std::size_t k = i + 1;
        while (k < out.size()) {
          if (out[k] == '\\') {
            k += 2;
            continue;
          }
          if (out[k] == quote) {
            break;
          }
          ++k;
        }
        const std::size_t stop = k < out.size() ? k + 1 : out.size();
        for (std::size_t m = i; m < stop; ++m) {
          out[m] = ' ';
        }
        i = stop;
        continue;
      }
      ++i;
    }
    return out;
  }
};

/// True when `text` contains `token` at an identifier boundary (the
/// character before the match is not part of an identifier and, unless
/// the token itself ends in a punctuator like '(', neither is the one
/// after).
[[nodiscard]] bool contains_token(std::string_view text,
                                  std::string_view token) {
  std::size_t from = 0;
  while (true) {
    const std::size_t at = text.find(token, from);
    if (at == std::string_view::npos) {
      return false;
    }
    const bool left_ok = at == 0 || !is_ident_char(text[at - 1]);
    const char last = token.back();
    const std::size_t end = at + token.size();
    const bool right_ok = is_ident_char(last)
                              ? end >= text.size() || !is_ident_char(text[end])
                              : true;
    if (left_ok && right_ok) {
      return true;
    }
    from = at + 1;
  }
}

/// Like contains_token but allows a qualified match ("std::" etc. before
/// the token is fine; "capture_time(" must not match "time(").
[[nodiscard]] bool contains_call(std::string_view text,
                                 std::string_view name) {
  std::size_t from = 0;
  while (true) {
    const std::size_t at = text.find(name, from);
    if (at == std::string_view::npos) {
      return false;
    }
    const bool left_ok = at == 0 || !is_ident_char(text[at - 1]);
    // Skip whitespace between the name and a call's opening parenthesis.
    std::size_t end = at + name.size();
    while (end < text.size() &&
           std::isspace(static_cast<unsigned char>(text[end])) != 0) {
      ++end;
    }
    if (left_ok && end < text.size() && text[end] == '(') {
      return true;
    }
    from = at + 1;
  }
}

// ---------------------------------------------------------------------------
// Justification tags
// ---------------------------------------------------------------------------

// Adjacent literals keep this file from matching its own tag scanner.
constexpr std::string_view kTagPrefix = "slpdas-lint" ":";

/// The rules an allow(...) tag may name. A tag naming any other rule
/// silences nothing, so it is a finding rather than dead text.
constexpr std::string_view kRules[] = {
    "wall-clock", "unordered-serialisation", "float-accumulate",
    "bare-catch"};

struct TagScan {
  bool allows(std::string_view rule) const {
    return std::find(allowed.begin(), allowed.end(), rule) != allowed.end();
  }
  std::vector<std::string> allowed;  // rules with a justified allow tag
  bool ordered_reduction = false;    // the float-accumulate documentation tag
  bool malformed = false;            // tag present but reason missing
  std::string malformed_detail;
};

/// Parses every slpdas-lint tag on the RAW line (tags live in comments,
/// which the stripper erases).
[[nodiscard]] TagScan scan_tags(std::string_view raw) {
  TagScan scan;
  std::size_t from = 0;
  while (true) {
    const std::size_t at = raw.find(kTagPrefix, from);
    if (at == std::string_view::npos) {
      return scan;
    }
    std::string_view rest = trim(raw.substr(at + kTagPrefix.size()));
    if (rest.rfind("allow(", 0) == 0) {
      const std::size_t close = rest.find(')');
      if (close == std::string_view::npos) {
        scan.malformed = true;
        scan.malformed_detail = "unterminated allow(...)";
        return scan;
      }
      const std::string_view rule = trim(rest.substr(6, close - 6));
      const std::string_view after = trim(rest.substr(close + 1));
      if (after.empty() || after.front() != ':' ||
          trim(after.substr(1)).empty()) {
        scan.malformed = true;
        scan.malformed_detail =
            "allow(" + std::string(rule) + ") needs a reason: use "
            "`slpdas-lint" ": allow(" + std::string(rule) + "): <why>`";
        return scan;
      }
      if (std::find(std::begin(kRules), std::end(kRules), rule) ==
          std::end(kRules)) {
        scan.malformed = true;
        scan.malformed_detail = "allow(" + std::string(rule) +
                                ") names no rule of this tool";
        return scan;
      }
      scan.allowed.emplace_back(rule);
    } else if (rest.rfind("ordered-reduction", 0) == 0) {
      const std::string_view after = trim(rest.substr(17));
      if (after.empty() || after.front() != ':' ||
          trim(after.substr(1)).empty()) {
        scan.malformed = true;
        scan.malformed_detail =
            "ordered-reduction needs the order spelled out: use "
            "`slpdas-lint: ordered-reduction: <order>`";
        return scan;
      }
      scan.ordered_reduction = true;
    } else {
      scan.malformed = true;
      scan.malformed_detail =
          "unknown tag (expected allow(<rule>): <why> or "
          "ordered-reduction: <order>)";
      return scan;
    }
    from = at + kTagPrefix.size();
  }
}

// ---------------------------------------------------------------------------
// Rule: wall-clock
// ---------------------------------------------------------------------------

/// Identifier tokens that are forbidden wherever they appear.
constexpr std::string_view kClockTokens[] = {
    "random_device",        "system_clock", "steady_clock",
    "high_resolution_clock", "gettimeofday", "timespec_get",
    "__DATE__",             "__TIME__",     "__TIMESTAMP__",
};

/// Function names forbidden as calls (boundary + '(' so capture_time(),
/// next_time() and SimTime never match).
constexpr std::string_view kClockCalls[] = {
    "rand", "srand", "rand_r", "time", "clock", "localtime", "gmtime",
    "strftime", "mktime", "ctime", "asctime", "difftime",
};

[[nodiscard]] bool wall_clock_hit(std::string_view code, std::string* what) {
  for (const std::string_view token : kClockTokens) {
    if (contains_token(code, token)) {
      *what = std::string(token);
      return true;
    }
  }
  for (const std::string_view call : kClockCalls) {
    if (contains_call(code, call)) {
      *what = std::string(call) + "()";
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Rule: unordered-serialisation
// ---------------------------------------------------------------------------

constexpr std::string_view kSerialisationHeaders[] = {
    "json.hpp",
    "cell_record.hpp",
    "cell_cache.hpp",
};

/// Extracts names declared as unordered containers on this line
/// ("std::unordered_map<K, V> taken;" -> "taken"). Heuristic: the first
/// identifier after the closing angle bracket of an unordered_{map,set}
/// template argument list.
void collect_unordered_names(std::string_view code,
                             std::vector<std::string>* names) {
  for (const std::string_view kind : {std::string_view("unordered_map"),
                                      std::string_view("unordered_set")}) {
    std::size_t from = 0;
    while (true) {
      const std::size_t at = code.find(kind, from);
      if (at == std::string_view::npos) {
        break;
      }
      from = at + kind.size();
      std::size_t i = from;
      if (i >= code.size() || code[i] != '<') {
        continue;
      }
      int depth = 0;
      while (i < code.size()) {
        if (code[i] == '<') {
          ++depth;
        } else if (code[i] == '>') {
          if (--depth == 0) {
            ++i;
            break;
          }
        }
        ++i;
      }
      while (i < code.size() &&
             (std::isspace(static_cast<unsigned char>(code[i])) != 0 ||
              code[i] == '&')) {
        ++i;
      }
      std::size_t name_end = i;
      while (name_end < code.size() && is_ident_char(code[name_end])) {
        ++name_end;
      }
      if (name_end > i) {
        names->emplace_back(code.substr(i, name_end - i));
      }
    }
  }
}

/// True when this line iterates an unordered container: a range-for whose
/// range expression mentions `unordered` or a tracked declared name, or
/// .begin()/.end()/iterator access on a tracked name.
[[nodiscard]] bool unordered_iteration_hit(
    std::string_view code, const std::vector<std::string>& names,
    std::string* what) {
  const std::size_t for_at = code.find("for");
  if (for_at != std::string_view::npos &&
      contains_token(code, "for")) {
    // The range-for's ':' — skip over '::' scope qualifiers so a classic
    // `for (std::size_t i = 0; ...)` never mistakes "std::" for a range.
    std::size_t colon = std::string_view::npos;
    for (std::size_t i = for_at; i < code.size(); ++i) {
      if (code[i] != ':') {
        continue;
      }
      if (i + 1 < code.size() && code[i + 1] == ':') {
        ++i;
        continue;
      }
      colon = i;
      break;
    }
    if (colon != std::string_view::npos) {
      const std::string_view range = code.substr(colon + 1);
      if (range.find("unordered_") != std::string_view::npos) {
        *what = "range-for over an unordered container";
        return true;
      }
      for (const std::string& name : names) {
        if (contains_token(range, name)) {
          *what = "range-for over unordered container '" + name + "'";
          return true;
        }
      }
    }
  }
  for (const std::string& name : names) {
    for (const char* access : {".begin()", ".end()", ".cbegin()", ".cend()"}) {
      if (code.find(name + access) != std::string_view::npos) {
        *what = "iterator over unordered container '" + name + "'";
        return true;
      }
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Rule: float-accumulate
// ---------------------------------------------------------------------------

/// True when the accumulate call's argument text smells floating-point:
/// a float literal initial value, or an explicit float/double mention.
[[nodiscard]] bool looks_float_accumulate(std::string_view code) {
  const std::size_t at = code.find("accumulate");
  if (at == std::string_view::npos || !contains_call(code, "accumulate")) {
    return false;
  }
  const std::string_view args = code.substr(at);
  if (contains_token(args, "double") || contains_token(args, "float")) {
    return true;
  }
  // Float literal: a digit sequence containing '.' or ending in f/F.
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(args[i])) == 0) {
      continue;
    }
    if (i > 0 && (is_ident_char(args[i - 1]) || args[i - 1] == '.')) {
      continue;
    }
    std::size_t k = i;
    bool has_dot = false;
    while (k < args.size() &&
           (std::isdigit(static_cast<unsigned char>(args[k])) != 0 ||
            args[k] == '.' || args[k] == '\'')) {
      has_dot = has_dot || args[k] == '.';
      ++k;
    }
    if (has_dot || (k < args.size() && (args[k] == 'f' || args[k] == 'F'))) {
      return true;
    }
    i = k;
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

std::vector<Finding> lint_source(std::string_view path,
                                 std::string_view text) {
  std::vector<Finding> findings;
  Stripper stripper;
  std::vector<std::string> unordered_names;
  bool serialisation_file = false;
  TagScan previous_tags;  // tags on the line above cover this line

  std::size_t line_number = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t newline = text.find('\n', pos);
    const std::string_view raw =
        text.substr(pos, (newline == std::string_view::npos
                              ? text.size()
                              : newline) - pos);
    pos = newline == std::string_view::npos ? text.size() + 1 : newline + 1;
    ++line_number;

    const std::string code = stripper.strip(raw);
    const TagScan tags = scan_tags(raw);
    const auto emit = [&](std::string rule, std::string message) {
      findings.push_back(Finding{std::string(path), line_number,
                                 std::move(rule), std::move(message),
                                 std::string(trim(raw))});
    };
    const auto allowed = [&](std::string_view rule) {
      return tags.allows(rule) || previous_tags.allows(rule);
    };

    if (tags.malformed) {
      emit("bad-tag", tags.malformed_detail);
    }

    // Track what kind of file this is as the includes go by. The include
    // path lives in a string literal, so match on the raw line.
    if (!serialisation_file &&
        raw.find("#include") != std::string_view::npos) {
      for (const std::string_view header : kSerialisationHeaders) {
        const std::size_t at = raw.find(header);
        if (at != std::string_view::npos &&
            (at == 0 || raw[at - 1] == '/' || raw[at - 1] == '"' ||
             raw[at - 1] == '<')) {
          serialisation_file = true;
          break;
        }
      }
    }

    std::string what;
    if (wall_clock_hit(code, &what) && !allowed("wall-clock")) {
      emit("wall-clock",
           "wall-clock / ambient-randomness call '" + what +
               "': simulation output must be a pure function of (config, "
               "seed); perf-telemetry sites must carry "
               "`slpdas-lint: allow(wall-clock): <why>`");
    }

    if (serialisation_file) {
      collect_unordered_names(code, &unordered_names);
      if (unordered_iteration_hit(code, unordered_names, &what) &&
          !allowed("unordered-serialisation")) {
        emit("unordered-serialisation",
             what + " in a file that includes a serialisation header: "
                    "hash-order is process-dependent and would break "
                    "byte-stable documents");
      }
    }

    if (looks_float_accumulate(code) && !tags.ordered_reduction &&
        !previous_tags.ordered_reduction && !allowed("float-accumulate")) {
      emit("float-accumulate",
           "float/double std::accumulate without an ordered-reduction tag: "
           "FP addition is non-associative; document the order with "
           "`slpdas-lint: ordered-reduction: <order>`");
    }

    {
      // catch (...) with any spacing between the tokens. `view` keeps the
      // substr a view into `code`, not a dangling temporary string.
      const std::string_view view(code);
      const std::size_t at = view.find("catch");
      if (at != std::string_view::npos && contains_token(view, "catch")) {
        std::size_t i = at + 5;
        while (i < view.size() &&
               std::isspace(static_cast<unsigned char>(view[i])) != 0) {
          ++i;
        }
        if (i < view.size() && view[i] == '(') {
          std::string_view inner = view.substr(i + 1);
          const std::size_t close = inner.find(')');
          if (close != std::string_view::npos &&
              trim(inner.substr(0, close)) == "..." &&
              !allowed("bare-catch")) {
            emit("bare-catch",
                 "bare catch (...) swallows the failure's identity; name "
                 "the exception type, or justify a worker-boundary "
                 "fallback with `slpdas-lint: allow(bare-catch): <why>`");
          }
        }
      }
    }

    previous_tags = tags;
  }
  return findings;
}

std::vector<Finding> lint_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("slpdas_lint: cannot read " + path.string());
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return lint_source(path.string(), buffer.str());
}

std::vector<Finding> lint_tree(const std::filesystem::path& root) {
  std::vector<Finding> findings;
  const auto lintable = [](const std::filesystem::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".hpp" || ext == ".h" || ext == ".cpp" || ext == ".cc";
  };
  if (std::filesystem::is_regular_file(root)) {
    return lint_file(root);
  }
  if (!std::filesystem::is_directory(root)) {
    throw std::runtime_error("slpdas_lint: no such file or directory: " +
                             root.string());
  }
  for (auto it = std::filesystem::recursive_directory_iterator(root);
       it != std::filesystem::recursive_directory_iterator(); ++it) {
    if (it->is_directory() && it->path().filename() == "fixtures") {
      it.disable_recursion_pending();
      continue;
    }
    if (it->is_regular_file() && lintable(it->path())) {
      std::vector<Finding> file_findings = lint_file(it->path());
      findings.insert(findings.end(),
                      std::make_move_iterator(file_findings.begin()),
                      std::make_move_iterator(file_findings.end()));
    }
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return a.file != b.file ? a.file < b.file : a.line < b.line;
            });
  return findings;
}

std::string format_text(const std::vector<Finding>& findings) {
  std::ostringstream out;
  for (const Finding& f : findings) {
    out << f.file << ':' << f.line << ": [" << f.rule << "] " << f.message
        << "\n    " << f.snippet << '\n';
  }
  return out.str();
}

namespace {

void write_json_escaped(std::ostream& out, std::string_view text) {
  out << '"';
  for (const char c : text) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xf]
              << "0123456789abcdef"[c & 0xf];
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

}  // namespace

std::string format_json(const std::vector<Finding>& findings) {
  std::ostringstream out;
  for (const Finding& f : findings) {
    out << "{\"file\": ";
    write_json_escaped(out, f.file);
    out << ", \"line\": " << f.line << ", \"rule\": ";
    write_json_escaped(out, f.rule);
    out << ", \"message\": ";
    write_json_escaped(out, f.message);
    out << ", \"snippet\": ";
    write_json_escaped(out, f.snippet);
    out << "}\n";
  }
  return out.str();
}

}  // namespace slpdas::lint
