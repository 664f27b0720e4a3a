// Shardmap record serialisation and the claim directory
// ("slpdas.shardmap.v2"): the on-disk wire protocol between the fleet
// coordinator and its workers. Claims are exclusive-create files (the
// open(2) is the lock); done records are written whole to a unique
// temporary and link(2)ed into place, so a published record is never
// replaced; the manifest, heartbeats and error markers are written whole
// via unique-tmp + rename (detail::write_file_atomically, shared with
// the cell cache). A reader only ever sees complete records.
#include "slpdas/core/fleet.hpp"

#include <cerrno>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

#include "../atomic_file.hpp"
#include "../cell_record.hpp"
#include "../json.hpp"

namespace slpdas::core {
namespace {

namespace fs = std::filesystem;
using Value = detail::JsonParser::Value;

/// Writes `line` + '\n' to `path` whole (the rename REPLACES any previous
/// file, exactly right for heartbeats and idempotent markers; claims and
/// done records never come through here). Throws std::runtime_error on
/// failure.
void atomic_write_line(const std::string& path, const std::string& line) {
  const std::string failure =
      detail::write_file_atomically(path, line + '\n');
  if (!failure.empty()) {
    throw std::runtime_error("shardmap: " + failure);
  }
}

void append_string(std::ostream& out, const char* key,
                   const std::string& value) {
  out << ", \"" << key << "\": ";
  detail::write_json_string(out, value);
}

std::ostream& record_head(std::ostream& out, const char* type) {
  out << "{\"schema\": \"" << kShardMapSchema << "\", \"type\": \"" << type
      << '"';
  return out;
}

[[nodiscard]] Value parse_record(const std::string& text, const char* type) {
  detail::JsonParser parser(text);
  Value value = parser.parse();
  if (value.kind != Value::Kind::kObject) {
    throw std::runtime_error(std::string("shardmap: ") + type +
                             " record is not an object");
  }
  if (value.at("schema").as_string() != kShardMapSchema) {
    throw std::runtime_error("shardmap: unknown schema '" +
                             value.at("schema").as_string() + "'");
  }
  if (value.at("type").as_string() != type) {
    throw std::runtime_error("shardmap: expected a " + std::string(type) +
                             " record, got '" + value.at("type").as_string() +
                             "'");
  }
  return value;
}

[[nodiscard]] std::int64_t as_pid(const Value& value) {
  const std::uint64_t raw = value.as_u64();
  if (raw > static_cast<std::uint64_t>(
                std::numeric_limits<std::int64_t>::max())) {
    throw std::runtime_error("shardmap: pid out of range");
  }
  return static_cast<std::int64_t>(raw);
}

/// Cell index from a "cell-<N>.<suffix>" marker filename; nullopt for
/// anything else (worker markers, tmp files, foreign files).
[[nodiscard]] std::optional<std::uint64_t> cell_from_filename(
    const std::string& name, std::string_view suffix) {
  constexpr std::string_view kPrefix = "cell-";
  if (name.size() <= kPrefix.size() + suffix.size() ||
      name.rfind(kPrefix, 0) != 0 ||
      name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return std::nullopt;
  }
  const std::string digits =
      name.substr(kPrefix.size(), name.size() - kPrefix.size() - suffix.size());
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  try {
    detail::JsonParser parser(digits);
    return parser.parse().as_u64();
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// Zero-padded cell token so directory listings sort in grid order.
[[nodiscard]] std::string cell_token(std::uint64_t cell) {
  std::string digits = std::to_string(cell);
  if (digits.size() < 6) {
    digits.insert(0, 6 - digits.size(), '0');
  }
  return digits;
}

/// Slurps a whole file; nullopt when it cannot be opened (vanished
/// between the directory listing and the read).
[[nodiscard]] std::optional<std::string> slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return std::move(text).str();
}

}  // namespace

// ---------------------------------------------------------------------------
// Record formats
// ---------------------------------------------------------------------------

std::string format_shardmap_manifest(const ShardMapManifest& manifest) {
  std::ostringstream out;
  record_head(out, "manifest");
  append_string(out, "name", manifest.name);
  out << ", \"base_seed\": " << manifest.base_seed
      << ", \"grid_hash\": " << manifest.grid_hash
      << ", \"cells_total\": " << manifest.cells_total
      << ", \"deterministic\": " << (manifest.deterministic ? "true" : "false")
      << ", \"workers\": " << manifest.workers
      << ", \"worker_threads\": " << manifest.worker_threads
      << ", \"threads_total\": " << manifest.threads_total << '}';
  return std::move(out).str();
}

std::string format_shardmap_claim(const ShardMapClaim& claim) {
  std::ostringstream out;
  record_head(out, "claim") << ", \"cell\": " << claim.cell;
  append_string(out, "worker", claim.worker);
  out << ", \"pid\": " << claim.pid << '}';
  return std::move(out).str();
}

std::string format_shardmap_heartbeat(const ShardMapHeartbeat& heartbeat) {
  std::ostringstream out;
  record_head(out, "heartbeat");
  append_string(out, "worker", heartbeat.worker);
  out << ", \"pid\": " << heartbeat.pid << ", \"seq\": " << heartbeat.seq
      << '}';
  return std::move(out).str();
}

std::string format_shardmap_error(const ShardMapError& error) {
  std::ostringstream out;
  record_head(out, "error");
  if (error.cell) {
    out << ", \"cell\": " << *error.cell;
  }
  append_string(out, "worker", error.worker);
  append_string(out, "message", error.message);
  out << '}';
  return std::move(out).str();
}

ShardMapManifest parse_shardmap_manifest(const std::string& text) {
  const Value value = parse_record(text, "manifest");
  ShardMapManifest manifest;
  manifest.name = value.at("name").as_string();
  manifest.base_seed = value.at("base_seed").as_u64();
  manifest.grid_hash = value.at("grid_hash").as_u64();
  manifest.cells_total = value.at("cells_total").as_u64();
  manifest.deterministic = value.at("deterministic").as_bool();
  manifest.workers = value.at("workers").as_int();
  manifest.worker_threads = value.at("worker_threads").as_int();
  manifest.threads_total = value.at("threads_total").as_int();
  return manifest;
}

detail::SweepIdentity detail::identity_of(const ShardMapManifest& manifest) {
  SweepIdentity identity;
  identity.name = manifest.name;
  identity.base_seed = manifest.base_seed;
  identity.grid_hash = manifest.grid_hash;
  identity.cells_total = manifest.cells_total;
  identity.deterministic = manifest.deterministic;
  return identity;
}

ShardMapClaim parse_shardmap_claim(const std::string& text) {
  const Value value = parse_record(text, "claim");
  ShardMapClaim claim;
  claim.cell = value.at("cell").as_u64();
  claim.worker = value.at("worker").as_string();
  claim.pid = as_pid(value.at("pid"));
  return claim;
}

ShardMapHeartbeat parse_shardmap_heartbeat(const std::string& text) {
  const Value value = parse_record(text, "heartbeat");
  ShardMapHeartbeat heartbeat;
  heartbeat.worker = value.at("worker").as_string();
  heartbeat.pid = as_pid(value.at("pid"));
  heartbeat.seq = value.at("seq").as_u64();
  return heartbeat;
}

ShardMapError parse_shardmap_error(const std::string& text) {
  const Value value = parse_record(text, "error");
  ShardMapError error;
  if (const Value* cell = value.find("cell")) {
    error.cell = cell->as_u64();
  }
  error.worker = value.at("worker").as_string();
  error.message = value.at("message").as_string();
  return error;
}

// ---------------------------------------------------------------------------
// Manifest file
// ---------------------------------------------------------------------------

void write_shardmap_manifest(const std::string& directory,
                             const ShardMapManifest& manifest) {
  fs::create_directories(directory);
  atomic_write_line(directory + "/shardmap.json",
                    format_shardmap_manifest(manifest));
}

std::optional<ShardMapManifest> read_shardmap_manifest(
    const std::string& directory) {
  const std::optional<std::string> text = slurp(directory + "/shardmap.json");
  if (!text) {
    return std::nullopt;
  }
  return parse_shardmap_manifest(*text);
}

bool is_fleet_directory(const std::string& directory) {
  std::error_code ec;
  return fs::is_regular_file(directory + "/shardmap.json", ec);
}

// ---------------------------------------------------------------------------
// ClaimDir
// ---------------------------------------------------------------------------

ClaimDir::ClaimDir(std::string fleet_directory)
    : fleet_directory_(std::move(fleet_directory)),
      directory_(fleet_directory_ + "/claims") {
  if (fleet_directory_.empty()) {
    throw std::invalid_argument("ClaimDir: empty fleet directory");
  }
}

void ClaimDir::create() const { fs::create_directories(directory_); }

std::string ClaimDir::claim_path(std::uint64_t cell) const {
  return directory_ + "/cell-" + cell_token(cell) + ".claim";
}

std::string ClaimDir::done_path(std::uint64_t cell) const {
  return directory_ + "/cell-" + cell_token(cell) + ".done";
}

std::string ClaimDir::cell_error_path(std::uint64_t cell) const {
  return directory_ + "/cell-" + cell_token(cell) + ".error";
}

std::string ClaimDir::worker_error_path(const std::string& worker) const {
  return directory_ + "/worker-" + worker + ".error";
}

std::string ClaimDir::heartbeat_path(const std::string& worker) const {
  return directory_ + "/worker-" + worker + ".heartbeat";
}

bool ClaimDir::try_claim(const ShardMapClaim& claim) const {
  const std::string path = claim_path(claim.cell);
#ifdef _WIN32
  (void)path;
  throw std::runtime_error("shardmap claims require POSIX exclusive create");
#else
  // Exclusive create IS the claim: exactly one process wins this open(2).
  // (tmp+rename would not do — rename REPLACES an existing destination.)
  const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) {
    if (errno == EEXIST) {
      return false;
    }
    throw std::runtime_error(
        "shardmap: cannot create claim " + path + ": " +
        std::generic_category().message(errno));
  }
  // The advisory who/where record. A crash inside this window leaves an
  // unreadable-but-valid claim; scan() reports it as such.
  const std::string line = format_shardmap_claim(claim) + "\n";
  const char* data = line.data();
  std::size_t left = line.size();
  bool ok = true;
  while (left > 0) {
    const ::ssize_t wrote = ::write(fd, data, left);
    if (wrote < 0) {
      if (errno == EINTR) {
        continue;
      }
      ok = false;
      break;
    }
    data += wrote;
    left -= static_cast<std::size_t>(wrote);
  }
  ok = (::close(fd) == 0) && ok;
  if (!ok) {
    ::unlink(path.c_str());
    throw std::runtime_error("shardmap: cannot write claim " + path);
  }
  return true;
#endif
}

void ClaimDir::release_claim(std::uint64_t cell) const {
  std::error_code ec;
  fs::remove(claim_path(cell), ec);
}

bool ClaimDir::is_done(std::uint64_t cell) const {
  std::error_code ec;
  return fs::is_regular_file(done_path(cell), ec);
}

bool ClaimDir::mark_done(std::uint64_t cell, const std::string& record,
                         bool deterministic) const {
  const std::string path = done_path(cell);
  if (detail::write_file_exclusively(path, record)) {
    return true;
  }
  // Another worker finished the cell first (its claim had expired). Its
  // record stands; under deterministic timing the two must agree.
  if (deterministic && slurp(path) != record) {
    throw std::runtime_error(
        "shardmap: cell " + std::to_string(cell) +
        " already has a done record with DIFFERENT bytes — "
        "nondeterministic worker results");
  }
  return false;
}

void ClaimDir::mark_error(const ShardMapError& error) const {
  const std::string path = error.cell ? cell_error_path(*error.cell)
                                      : worker_error_path(error.worker);
  atomic_write_line(path, format_shardmap_error(error));
}

void ClaimDir::write_heartbeat(const ShardMapHeartbeat& heartbeat) const {
  atomic_write_line(heartbeat_path(heartbeat.worker),
                    format_shardmap_heartbeat(heartbeat));
}

ShardMapScan ClaimDir::scan() const {
  ShardMapScan result;
  std::error_code ec;
  fs::directory_iterator it(directory_, ec);
  if (ec) {
    throw std::runtime_error("shardmap: cannot list " + directory_ + ": " +
                             ec.message());
  }
  for (const fs::directory_entry& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.find(".tmp.") != std::string::npos) {
      continue;  // in-flight rename-writer temporary
    }
    if (const auto cell = cell_from_filename(name, ".done")) {
      result.done.insert(*cell);
      continue;
    }
    if (const auto cell = cell_from_filename(name, ".claim")) {
      const std::optional<std::string> text = slurp(entry.path());
      if (!text) {
        continue;  // released between listing and read
      }
      try {
        result.claims.emplace(*cell, parse_shardmap_claim(*text));
      } catch (const std::exception&) {
        // Owner died (or still is) between the exclusive create and the
        // advisory write: the claim holds, the owner is unknown.
        result.unreadable_claims.insert(*cell);
      }
      continue;
    }
    if (const auto cell = cell_from_filename(name, ".error")) {
      const std::optional<std::string> text = slurp(entry.path());
      if (!text) {
        throw std::runtime_error("shardmap: cannot read " +
                                 entry.path().string());
      }
      result.errors.push_back(parse_shardmap_error(*text));
      continue;
    }
    if (name.rfind("worker-", 0) == 0 &&
        name.size() > std::string_view(".error").size() &&
        name.compare(name.size() - 6, 6, ".error") == 0) {
      const std::optional<std::string> text = slurp(entry.path());
      if (!text) {
        throw std::runtime_error("shardmap: cannot read " +
                                 entry.path().string());
      }
      result.errors.push_back(parse_shardmap_error(*text));
      continue;
    }
    if (name.rfind("worker-", 0) == 0 &&
        name.size() > std::string_view(".heartbeat").size() &&
        name.compare(name.size() - 10, 10, ".heartbeat") == 0) {
      const std::optional<std::string> text = slurp(entry.path());
      if (!text) {
        throw std::runtime_error("shardmap: cannot read " +
                                 entry.path().string());
      }
      const ShardMapHeartbeat heartbeat = parse_shardmap_heartbeat(*text);
      result.heartbeats[heartbeat.worker] = heartbeat;
      continue;
    }
  }
  return result;
}

}  // namespace slpdas::core
