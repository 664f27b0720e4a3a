// A JSON-Schema *subset* validator over the library's own strict parser
// (src/core/json.hpp), used by schema_test and by the
// slpdas_schema_validate CLI (schema_validate.cpp, what CI runs on
// generated artifacts) to check every serialised document shape against
// the versioned schema files in tests/schemas/.
//
// Supported keywords: type (string or array of strings), const (string),
// enum (scalars), required, properties, additionalProperties (bool or
// schema), items, minItems/maxItems, minimum, minLength/maxLength,
// definitions and $ref — where a ref is '#/definitions/x' within the
// current file or 'other.schema.json#/definitions/x' across files in the
// same directory.
#pragma once

#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/json.hpp"

namespace slpdas::test {

class SchemaSet {
 public:
  using Value = core::detail::JsonParser::Value;

  explicit SchemaSet(std::string directory)
      : directory_(std::move(directory)) {}

  /// Loads (and caches) one schema file by name; throws on parse errors.
  const Value& load(const std::string& name) {
    const auto found = cache_.find(name);
    if (found != cache_.end()) {
      return found->second;
    }
    std::ifstream in(directory_ + "/" + name, std::ios::binary);
    if (!in) {
      throw std::runtime_error("schema file unreadable: " + name);
    }
    core::detail::JsonParser parser(in);
    return cache_.emplace(name, parser.parse()).first->second;
  }

  /// Validates `value` against the fragment named by `ref`
  /// ("file.schema.json#" for a whole file, or
  /// "file.schema.json#/definitions/x"). Returns every violation found;
  /// an empty vector means the document conforms.
  std::vector<std::string> validate(const Value& value,
                                    const std::string& ref) {
    std::vector<std::string> errors;
    const auto [schema, owner] = resolve(ref, /*current_file=*/"");
    check(value, *schema, owner, "$", errors);
    return errors;
  }

 private:
  using Kind = Value::Kind;

  std::pair<const Value*, std::string> resolve(std::string_view ref,
                                               const std::string& file) {
    const std::size_t hash = ref.find('#');
    std::string owner(hash == std::string_view::npos ? ref
                                                     : ref.substr(0, hash));
    if (owner.empty()) {
      owner = file;
    }
    const Value* node = &load(owner);
    if (hash != std::string_view::npos) {
      std::string_view pointer = ref.substr(hash + 1);
      while (!pointer.empty()) {
        if (pointer.front() == '/') {
          pointer.remove_prefix(1);
          continue;
        }
        const std::size_t slash = pointer.find('/');
        const std::string_view step = pointer.substr(0, slash);
        node = &node->at(step);
        pointer = slash == std::string_view::npos ? std::string_view()
                                                  : pointer.substr(slash);
      }
    }
    return {node, owner};
  }

  static bool has_type(const Value& value, std::string_view name) {
    if (name == "null") {
      return value.kind == Kind::kNull;
    }
    if (name == "boolean") {
      return value.kind == Kind::kBool;
    }
    if (name == "string") {
      return value.kind == Kind::kString;
    }
    if (name == "object") {
      return value.kind == Kind::kObject;
    }
    if (name == "array") {
      return value.kind == Kind::kArray;
    }
    if (name == "number") {
      return value.kind == Kind::kNumber;
    }
    if (name == "integer") {
      // The writers emit integers as plain digit runs; a '.', exponent or
      // fraction in the raw token means the field was not written as one.
      return value.kind == Kind::kNumber &&
             value.raw.find_first_of(".eE") == std::string::npos;
    }
    throw std::runtime_error("schema: unknown type name '" +
                             std::string(name) + "'");
  }

  static bool scalar_equals(const Value& value, const Value& expected) {
    if (expected.kind == Kind::kString) {
      return value.kind == Kind::kString && value.string == expected.string;
    }
    if (expected.kind == Kind::kNumber) {
      return value.kind == Kind::kNumber && value.number == expected.number;
    }
    if (expected.kind == Kind::kBool) {
      return value.kind == Kind::kBool && value.boolean == expected.boolean;
    }
    return expected.kind == Kind::kNull && value.kind == Kind::kNull;
  }

  static std::string describe(const Value& value) {
    switch (value.kind) {
      case Kind::kNull:
        return "null";
      case Kind::kBool:
        return value.boolean ? "true" : "false";
      case Kind::kNumber:
        return value.raw;
      case Kind::kString:
        return "\"" + value.string + "\"";
      case Kind::kObject:
        return "object";
      case Kind::kArray:
        return "array";
    }
    return "?";
  }

  void check(const Value& value, const Value& schema, const std::string& file,
             const std::string& path, std::vector<std::string>& errors) {
    if (const Value* ref = schema.find("$ref")) {
      const auto [target, owner] = resolve(ref->as_string(), file);
      check(value, *target, owner, path, errors);
      return;
    }

    if (const Value* expected = schema.find("const")) {
      if (!scalar_equals(value, *expected)) {
        errors.push_back(path + ": expected " + describe(*expected) +
                         ", got " + describe(value));
      }
    }
    if (const Value* options = schema.find("enum")) {
      bool matched = false;
      for (const Value& option : options->as_array()) {
        matched = matched || scalar_equals(value, option);
      }
      if (!matched) {
        errors.push_back(path + ": " + describe(value) +
                         " is not one of the enum values");
      }
    }

    if (const Value* type = schema.find("type")) {
      bool matched = false;
      if (type->kind == Kind::kArray) {
        for (const Value& name : type->as_array()) {
          matched = matched || has_type(value, name.as_string());
        }
      } else {
        matched = has_type(value, type->as_string());
      }
      if (!matched) {
        errors.push_back(path + ": wrong type, got " + describe(value));
        return;  // the structural keywords below assume the right type
      }
    }

    if (value.kind == Kind::kNumber) {
      if (const Value* minimum = schema.find("minimum")) {
        if (value.number < minimum->as_number()) {
          errors.push_back(path + ": " + value.raw + " is below minimum");
        }
      }
    }
    if (value.kind == Kind::kString) {
      if (const Value* bound = schema.find("minLength")) {
        if (value.string.size() < bound->as_u64()) {
          errors.push_back(path + ": string shorter than minLength");
        }
      }
      if (const Value* bound = schema.find("maxLength")) {
        if (value.string.size() > bound->as_u64()) {
          errors.push_back(path + ": string longer than maxLength");
        }
      }
    }
    if (value.kind == Kind::kArray) {
      if (const Value* bound = schema.find("minItems")) {
        if (value.array.size() < bound->as_u64()) {
          errors.push_back(path + ": fewer than minItems items");
        }
      }
      if (const Value* bound = schema.find("maxItems")) {
        if (value.array.size() > bound->as_u64()) {
          errors.push_back(path + ": more than maxItems items");
        }
      }
      if (const Value* items = schema.find("items")) {
        for (std::size_t i = 0; i < value.array.size(); ++i) {
          check(value.array[i], *items, file,
                path + "[" + std::to_string(i) + "]", errors);
        }
      }
    }
    if (value.kind == Kind::kObject) {
      if (const Value* required = schema.find("required")) {
        for (const Value& key : required->as_array()) {
          if (value.find(key.as_string()) == nullptr) {
            errors.push_back(path + ": missing required key '" +
                             key.as_string() + "'");
          }
        }
      }
      const Value* properties = schema.find("properties");
      if (properties != nullptr) {
        for (const auto& [key, sub] : properties->as_object()) {
          if (const Value* present = value.find(key)) {
            check(*present, sub, file, path + "." + key, errors);
          }
        }
      }
      if (const Value* extra = schema.find("additionalProperties")) {
        if (!(extra->kind == Kind::kBool && extra->boolean)) {
          for (const auto& [key, sub] : value.as_object()) {
            if (properties != nullptr && properties->find(key) != nullptr) {
              continue;
            }
            if (extra->kind == Kind::kBool) {
              errors.push_back(path + ": unexpected key '" + key + "'");
            } else {
              check(sub, *extra, file, path + "." + key, errors);
            }
          }
        }
      }
    }
  }

  std::string directory_;
  std::map<std::string, Value> cache_;
};

}  // namespace slpdas::test
