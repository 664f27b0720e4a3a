#include "slpdas/core/cell_cache.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <system_error>

#include "atomic_file.hpp"
#include "cell_record.hpp"
#include "fnv.hpp"
#include "json.hpp"
#include "slpdas/detail/spec_format.hpp"

namespace slpdas::core {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kCacheSchemaV1 = "slpdas.cachecell.v1";
constexpr std::string_view kEntrySuffix = ".cachecell.json";

std::string u64_hex16(std::uint64_t value) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[value & 0xF];
    value >>= 4;
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Entry text: the one composer and the one reader
// ---------------------------------------------------------------------------

std::string detail::compose_cache_entry(const CellCacheKey& key,
                                        const SweepJsonCell& cell) {
  std::ostringstream out;
  out << "{\"schema\": ";
  write_json_string(out, kCacheSchemaV1);
  out << ", \"key\": ";
  write_json_string(out, key.hex());
  out << ", \"config\": {\"topology\": ";
  write_json_string(out, key.topology);
  out << ", \"protocol\": ";
  write_json_string(out, key.protocol);
  out << ", \"attacker\": ";
  write_json_string(out, key.attacker);
  out << ", \"radio\": ";
  write_json_string(out, key.radio);
  out << "}, \"parameters\": ";
  write_json_string(out, key.parameters);
  out << ", \"cell_seed\": " << key.cell_seed << ", \"runs\": " << key.runs
      << ", \"deterministic\": " << (key.deterministic ? "true" : "false")
      << "}\n";
  write_cell_stream_record(out, cell);
  return out.str();
}

detail::CacheEntry detail::read_cache_entry(const std::string& text) {
  // Exactly two newline-terminated lines: a missing final newline is a
  // torn write (never visible through the atomic rename or link, but a
  // truncated copy or a hand-edited file shows one), and trailing extra
  // lines mean the file is not ours.
  const std::size_t first_newline = text.find('\n');
  if (first_newline == std::string::npos) {
    throw std::runtime_error("cache entry: truncated header line");
  }
  const std::size_t second_newline = text.find('\n', first_newline + 1);
  if (second_newline == std::string::npos) {
    throw std::runtime_error("cache entry: truncated record line");
  }
  if (second_newline + 1 != text.size()) {
    throw std::runtime_error("cache entry: trailing content after record");
  }

  JsonParser header_parser(text.substr(0, first_newline));
  const JsonParser::Value header = header_parser.parse();
  const std::string& schema = header.at("schema").as_string();
  if (schema != kCacheSchemaV1) {
    throw std::runtime_error("cache entry: unknown schema '" + schema + "'");
  }
  CacheEntry entry;
  CellCacheKey& key = entry.key;
  const JsonParser::Value& config = header.at("config");
  key.topology = config.at("topology").as_string();
  key.protocol = config.at("protocol").as_string();
  key.attacker = config.at("attacker").as_string();
  key.radio = config.at("radio").as_string();
  key.parameters = header.at("parameters").as_string();
  key.cell_seed = header.at("cell_seed").as_u64();
  key.runs = header.at("runs").as_int();
  key.deterministic = header.at("deterministic").as_bool();
  if (header.at("key").as_string() != key.hex()) {
    throw std::runtime_error("cache entry: stored key hash mismatch");
  }

  JsonParser record_parser(
      text.substr(first_newline + 1, second_newline - first_newline));
  entry.cell = parse_cell_json(record_parser.parse());
  const SweepJsonCell& cell = entry.cell;
  if (cell.cell_seed != key.cell_seed || cell.runs != key.runs ||
      !cell.has_config || cell.config_topology != key.topology ||
      cell.config_protocol != key.protocol ||
      cell.config_attacker != key.attacker || cell.config_radio != key.radio) {
    throw std::runtime_error(
        "cache entry: record disagrees with the entry header");
  }
  return entry;
}

// ---------------------------------------------------------------------------
// CellCacheKey
// ---------------------------------------------------------------------------

std::string CellCacheKey::material() const {
  std::string out;
  out += kCacheSchemaV1;
  out += "\ntopology=";
  out += topology;
  out += "\nprotocol=";
  out += protocol;
  out += "\nattacker=";
  out += attacker;
  out += "\nradio=";
  out += radio;
  out += "\nparameters=";
  out += parameters;
  out += "\ncell_seed=";
  out += std::to_string(cell_seed);
  out += "\nruns=";
  out += std::to_string(runs);
  out += "\ndeterministic=";
  out += deterministic ? '1' : '0';
  out += '\n';
  return out;
}

std::uint64_t CellCacheKey::hash() const {
  return detail::fnv1a_bytes(detail::kFnvOffset, material());
}

std::string CellCacheKey::hex() const { return u64_hex16(hash()); }

std::string format_parameter_digest(const ExperimentConfig& config) {
  using slpdas::detail::format_double_shortest;
  const Parameters& p = config.parameters;
  std::string out;
  out += "Psrc=" + format_double_shortest(p.source_period_s);
  out += ",Pslot=" + format_double_shortest(p.slot_period_s);
  out += ",Pdiss=" + format_double_shortest(p.dissem_period_s);
  out += ",slots=" + std::to_string(p.slots);
  out += ",MSP=" + std::to_string(p.minimum_setup_periods);
  out += ",NDP=" + std::to_string(p.neighbor_discovery_periods);
  out += ",DT=" + std::to_string(p.dissemination_timeout);
  out += ",SD=" + std::to_string(p.search_distance);
  out += ",CL=";
  out += p.change_length ? std::to_string(*p.change_length) : "auto";
  out += ",SSP=";
  out +=
      p.search_start_period ? std::to_string(*p.search_start_period) : "auto";
  out += ",Cs=" + format_double_shortest(p.safety_factor);
  out += ",bound=" + format_double_shortest(p.sim_bound_multiplier);
  out += ",check=";
  out += config.check_schedules ? '1' : '0';
  // The casino-lab burst model is C++-only configuration outside the
  // radio spec grammar; digest it unconditionally (even for other radios)
  // — a few constant bytes buy never serving a stale burst model.
  out += ",casino=" + format_double_shortest(config.casino.quiet_loss) + ":" +
         format_double_shortest(config.casino.burst_loss) + ":" +
         std::to_string(config.casino.mean_quiet) + ":" +
         std::to_string(config.casino.mean_burst);
  return out;
}

CellCacheKey make_cell_cache_key(const ExperimentConfig& config,
                                 std::uint64_t cell_seed, bool deterministic) {
  CellCacheKey key;
  key.topology = config.topology.to_string();
  key.protocol =
      format_protocol_spec(config.protocol, config.phantom_walk_length);
  key.attacker = config.attacker.to_spec();
  key.radio = format_radio_spec(config.radio, config.loss_probability);
  key.parameters = format_parameter_digest(config);
  key.cell_seed = cell_seed;
  key.runs = config.runs;
  key.deterministic = deterministic;
  return key;
}

// ---------------------------------------------------------------------------
// CellCache
// ---------------------------------------------------------------------------

CellCache::CellCache(std::string directory, bool read_only)
    : directory_(std::move(directory)), read_only_(read_only) {
  std::error_code ec;
  if (!read_only_) {
    fs::create_directories(directory_, ec);
  }
  if (!fs::is_directory(directory_, ec)) {
    if (read_only_) {
      // A read-only cache over a missing directory is a legal (always
      // missing) cache: shards may share a --cache-readonly path only
      // some of which was ever populated. An EXISTING non-directory is
      // still an error.
      if (!fs::exists(directory_, ec)) {
        return;
      }
    }
    throw std::runtime_error("cell cache: '" + directory_ +
                             "' is not a usable cache directory");
  }
}

std::string CellCache::entry_path(const CellCacheKey& key) const {
  return (fs::path(directory_) / (key.hex() + std::string(kEntrySuffix)))
      .string();
}

std::optional<SweepJsonCell> CellCache::lookup(const CellCacheKey& key) {
  const std::string path = entry_path(key);
  std::error_code ec;
  if (!fs::exists(path, ec)) {
    const std::scoped_lock lock(mutex_);
    ++stats_.misses;
    return std::nullopt;
  }
  try {
    detail::CacheEntry entry =
        detail::read_cache_entry(detail::read_file(path));
    // The key the entry claims must be the one we are probing: a mismatch
    // in any identity field means the file holds a different experiment's
    // result (hash collision, stale format, tampering).
    if (entry.key == key) {
      const std::scoped_lock lock(mutex_);
      ++stats_.hits;
      return std::move(entry.cell);
    }
  } catch (const std::exception&) {
  }
  // Corrupt, truncated or mismatched: recompute, never trust. The entry
  // stays on disk (diagnosable via `cache verify`) until the recomputed
  // result overwrites it or `cache gc` removes it.
  const std::scoped_lock lock(mutex_);
  ++stats_.rejected;
  return std::nullopt;
}

bool CellCache::store(const CellCacheKey& key, const SweepJsonCell& cell) {
  if (read_only_) {
    return false;
  }
  // Written whole: a reader never observes a partial entry, and two
  // processes storing the same key race benignly — both rename identical
  // canonical bytes over the same path.
  const bool ok =
      detail::write_file_atomically(entry_path(key),
                                    detail::compose_cache_entry(key, cell))
          .empty();
  const std::scoped_lock lock(mutex_);
  ++(ok ? stats_.stores : stats_.store_failures);
  return ok;
}

CellCacheStats CellCache::stats() const {
  const std::scoped_lock lock(mutex_);
  return stats_;
}

// ---------------------------------------------------------------------------
// Maintenance
// ---------------------------------------------------------------------------

namespace {

bool is_entry_name(const std::string& name) {
  if (name.size() != 16 + kEntrySuffix.size() ||
      name.compare(16, std::string::npos, kEntrySuffix) != 0) {
    return false;
  }
  return std::all_of(name.begin(), name.begin() + 16, [](char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
  });
}

bool is_temp_name(const std::string& name) {
  const std::size_t suffix = name.find(kEntrySuffix);
  return suffix != std::string::npos &&
         name.compare(suffix, kEntrySuffix.size() + 5,
                      std::string(kEntrySuffix) + ".tmp.") == 0;
}

}  // namespace

CellCacheScanReport scan_cell_cache(const std::string& directory) {
  std::error_code ec;
  if (!fs::is_directory(directory, ec)) {
    throw std::runtime_error("cell cache: '" + directory +
                             "' is not a directory");
  }
  CellCacheScanReport report;
  for (const fs::directory_entry& entry : fs::directory_iterator(directory)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    const std::string name = entry.path().filename().string();
    if (is_temp_name(name)) {
      report.temp_files.push_back(entry.path().string());
      continue;
    }
    if (!is_entry_name(name)) {
      continue;  // foreign file — never claimed, never touched
    }
    CellCacheEntryReport item;
    item.path = entry.path().string();
    item.bytes = entry.file_size(ec);
    report.total_bytes += ec ? 0 : item.bytes;
    try {
      // A scan has no probe key: the entry must live under the name of
      // the key its own header claims.
      const detail::CacheEntry parsed =
          detail::read_cache_entry(detail::read_file(item.path));
      if (name.substr(0, 16) != parsed.key.hex()) {
        throw std::runtime_error(
            "cache entry: file name does not match the recomputed key");
      }
      item.valid = true;
      ++report.valid;
    } catch (const std::exception& error) {
      item.valid = false;
      item.error = error.what();
      ++report.invalid;
    }
    report.entries.push_back(std::move(item));
  }
  std::sort(report.entries.begin(), report.entries.end(),
            [](const CellCacheEntryReport& a, const CellCacheEntryReport& b) {
              return a.path < b.path;
            });
  std::sort(report.temp_files.begin(), report.temp_files.end());
  return report;
}

CellCacheGcReport gc_cell_cache(const std::string& directory) {
  const CellCacheScanReport scan = scan_cell_cache(directory);
  CellCacheGcReport report;
  std::error_code ec;
  for (const CellCacheEntryReport& entry : scan.entries) {
    if (entry.valid) {
      continue;
    }
    if (fs::remove(entry.path, ec) && !ec) {
      ++report.removed_invalid;
      report.reclaimed_bytes += entry.bytes;
    }
  }
  for (const std::string& tmp : scan.temp_files) {
    const std::uintmax_t bytes = fs::file_size(tmp, ec);
    if (fs::remove(tmp, ec) && !ec) {
      ++report.removed_temp;
      report.reclaimed_bytes += bytes == static_cast<std::uintmax_t>(-1)
                                    ? 0
                                    : bytes;
    }
  }
  return report;
}

}  // namespace slpdas::core
