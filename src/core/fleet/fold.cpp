// The fleet fold: worker streams -> one unsharded "slpdas.sweep.v2"
// document, byte-identical (under deterministic timing) to a
// single-process run. This is the single-threaded stable merge of the
// determinism contract — all the parallelism happened in the workers.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "../cell_record.hpp"
#include "slpdas/core/fleet.hpp"

namespace slpdas::core {
namespace {

namespace fs = std::filesystem;

/// Canonical bytes of one cell record — the duplicate-equality test. Two
/// workers that both completed a cell (a death between the stream flush
/// and the done marker) must have produced identical bytes under
/// --deterministic; anything else is a real nondeterminism bug and must
/// fail the fold, not silently pick a winner.
[[nodiscard]] std::string record_bytes(const SweepJsonCell& cell) {
  std::ostringstream out;
  write_cell_stream_record(out, cell);
  return std::move(out).str();
}

}  // namespace

SweepJson merge_worker_streams(const ShardMapManifest& manifest,
                               const std::vector<CellStream>& streams) {
  // Duplicates are the fleet's own business (the shared fold refuses
  // them): the first stream in the caller's order — fold_fleet_directory
  // passes filename order — keeps its record, so the fold is
  // deterministic in the directory contents alone.
  std::map<std::uint64_t, const SweepJsonCell*> first;
  std::vector<detail::FoldInput> inputs;
  for (const CellStream& stream : streams) {
    detail::FoldInput& input = inputs.emplace_back();
    input.identity = detail::identity_of(stream.header);
    for (const SweepJsonCell& cell : stream.cells) {
      const auto [it, inserted] = first.emplace(cell.index, &cell);
      if (inserted) {
        input.cells.push_back(cell);
      } else if (manifest.deterministic &&
                 record_bytes(cell) != record_bytes(*it->second)) {
        throw std::runtime_error(
            "fleet fold: cell " + std::to_string(cell.index) +
            " was recorded by two workers with DIFFERENT bytes — "
            "nondeterministic worker results");
      }
    }
  }
  SweepJson document = detail::fold_sweep(detail::identity_of(manifest),
                                          std::move(inputs), "fleet fold");
  // workers x worker_threads: the pool size a single-process run would
  // have used, so the folded document is byte-identical to `run
  // --threads N` (results never depend on the pool size; the field is
  // descriptive).
  document.threads = manifest.threads_total;
  return document;
}

SweepJson fold_fleet_directory(const std::string& directory) {
  const std::optional<ShardMapManifest> manifest =
      read_shardmap_manifest(directory);
  if (!manifest) {
    throw std::runtime_error("fleet fold: no shardmap.json in " + directory);
  }
  const std::string streams_dir = directory + "/streams";
  std::vector<std::string> paths;
  std::error_code ec;
  fs::directory_iterator it(streams_dir, ec);
  if (!ec) {
    for (const fs::directory_entry& entry : it) {
      if (entry.path().extension() == ".jsonl") {
        paths.push_back(entry.path().string());
      }
    }
  }
  std::sort(paths.begin(), paths.end());

  std::vector<CellStream> streams;
  streams.reserve(paths.size());
  for (const std::string& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      throw std::runtime_error("fleet fold: cannot open " + path);
    }
    std::ostringstream text;
    text << in.rdbuf();
    const std::string content = std::move(text).str();
    if (content.find('\n') == std::string::npos) {
      // A worker killed before its first flush left no complete header
      // line — an empty incarnation, not an error.
      continue;
    }
    std::istringstream stream_in(content);
    streams.push_back(read_cell_stream(stream_in));
  }
  return merge_worker_streams(*manifest, streams);
}

}  // namespace slpdas::core
