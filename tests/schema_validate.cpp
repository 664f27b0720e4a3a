// slpdas_schema_validate: validates JSON documents against the versioned
// schema files in tests/schemas/ with the subset validator in
// schema_validator.hpp — the one validator behind both schema_test and
// the CI steps that check generated artifacts.
//
// Usage:
//   slpdas_schema_validate SCHEMA.json[#/definitions/KIND] FILE...
//       Validate each FILE (a whole JSON document) against SCHEMA, or
//       against one of its definitions when a fragment is given (how CI
//       checks the single-record fleet marker files).
//
//   slpdas_schema_validate SCHEMA.json --lines HEADER_REF RECORD_REF FILE...
//       Treat each FILE as JSONL: the first non-empty line validates
//       against the schema fragment HEADER_REF (e.g. '#/definitions/header'),
//       every later non-empty line against RECORD_REF.
//
// Exit status: 0 all documents valid, 1 violations found (a document that
// is not JSON is one), 2 usage error, unreadable file or broken schema.
#include <cstddef>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "schema_validator.hpp"

namespace {

using slpdas::core::detail::JsonParser;
using slpdas::test::SchemaSet;

constexpr int kUsage = 2;

int usage(const char* why) {
  std::cerr << "slpdas_schema_validate: " << why << "\n"
            << "usage: slpdas_schema_validate SCHEMA.json[#FRAGMENT] FILE...\n"
            << "       slpdas_schema_validate SCHEMA.json --lines HEADER_REF "
               "RECORD_REF FILE...\n";
  return kUsage;
}

/// Validates one JSON text against `ref`, prefixing every violation with
/// `where`. A text that does not parse is itself one violation.
void validate_text(SchemaSet& schemas, const std::string& text,
                   const std::string& ref, const std::string& where,
                   std::vector<std::string>& errors) {
  JsonParser::Value value;
  try {
    value = JsonParser(text).parse();
  } catch (const std::exception& error) {
    errors.push_back(where + "not valid JSON: " + error.what());
    return;
  }
  for (const std::string& error : schemas.validate(value, ref)) {
    errors.push_back(where + error);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    return usage("no schema given");
  }
  const std::string schema_arg = args.front();
  const std::size_t hash = schema_arg.find('#');
  const std::filesystem::path schema_path = schema_arg.substr(0, hash);
  const std::string fragment =
      hash == std::string::npos ? "" : schema_arg.substr(hash + 1);
  std::size_t first_file = 1;
  const bool lines = args.size() > 1 && args[1] == "--lines";
  if (lines) {
    if (args.size() < 5) {
      return usage("--lines needs HEADER_REF RECORD_REF FILE...");
    }
    first_file = 4;
  }
  if (args.size() <= first_file) {
    return usage("no input files");
  }

  const std::string schema_name = schema_path.filename().string();
  SchemaSet schemas(
      std::filesystem::absolute(schema_path).parent_path().string());
  std::size_t failures = 0;
  std::size_t documents = 0;
  try {
    (void)schemas.load(schema_name);  // a missing schema is not a violation
    for (std::size_t i = first_file; i < args.size(); ++i) {
      const std::string& input = args[i];
      std::ifstream in(input, std::ios::binary);
      if (!in) {
        std::cerr << "slpdas_schema_validate: cannot read " << input << "\n";
        return kUsage;
      }
      std::vector<std::string> errors;
      if (!lines) {
        const std::string text{std::istreambuf_iterator<char>(in),
                               std::istreambuf_iterator<char>()};
        validate_text(schemas, text, schema_name + "#" + fragment, "", errors);
        ++documents;
      } else {
        std::size_t seen = 0;
        std::string line;
        for (std::size_t number = 1; std::getline(in, line); ++number) {
          if (line.find_first_not_of(" \t\r") == std::string::npos) {
            continue;
          }
          const std::string& ref = args[seen == 0 ? 2 : 3];
          ++seen;
          validate_text(schemas, line, schema_name + ref,
                        "line " + std::to_string(number) + ": ", errors);
        }
        documents += seen;
      }
      for (const std::string& error : errors) {
        std::cout << input << ": " << error << "\n";
      }
      failures += errors.size();
    }
  } catch (const std::exception& error) {
    // Only the schema side throws: an unreadable schema file, a dangling
    // $ref or an unknown type name.
    std::cerr << "slpdas_schema_validate: schema error: " << error.what()
              << "\n";
    return kUsage;
  }
  if (failures != 0) {
    std::cout << "schema validation: " << failures << " violation(s)\n";
    return 1;
  }
  std::cout << "schema validation: " << documents
            << " document(s) valid against " << schema_name << "\n";
  return 0;
}
