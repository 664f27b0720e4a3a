// Internal cell-record pipeline shared by the sweep engine
// (src/core/sweep.cpp), the cell-result cache (src/core/cell_cache.cpp)
// and the fleet (src/core/fleet/): the one cell parser — a
// "slpdas.sweep.v2" cells[] entry, a "slpdas.cell.v1" stream record and a
// "slpdas.cachecell.v1" payload line share one field set — the one
// composer and the one validated reader of a "slpdas.cachecell.v1" entry
// (a cache file, and also the content of a fleet done marker), plus the
// one sweep-identity comparison and the one fold from cell records back
// to a sweep document. Not installed.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "json.hpp"
#include "slpdas/core/cell_cache.hpp"
#include "slpdas/core/sweep.hpp"

namespace slpdas::core {

struct ShardMapManifest;  // fleet.hpp

namespace detail {

/// Parses one serialised cell object. Throws std::runtime_error on
/// malformed or incomplete input. Defined in sweep.cpp.
[[nodiscard]] SweepJsonCell parse_cell_json(
    const JsonParser::Value& cell_value);

/// derive_cell_seed over `cell`'s seed label (its label when it has
/// none): the seed its runs derive from. Defined in sweep.cpp.
[[nodiscard]] std::uint64_t cell_seed_of(const SweepCell& cell,
                                         std::uint64_t base_seed);

/// The exact bytes of one "slpdas.cachecell.v1" entry (header line, then
/// `cell`'s record line), as CellCache::store writes it and a fleet
/// worker publishes it as a done marker. Defined in cell_cache.cpp.
[[nodiscard]] std::string compose_cache_entry(const CellCacheKey& key,
                                              const SweepJsonCell& cell);

/// One parsed entry: the key its header claims and its record.
struct CacheEntry {
  CellCacheKey key;
  SweepJsonCell cell;
};

/// The one reader of entry text: exactly two newline-terminated lines,
/// the schema, a stored key hash the header's fields recompute, and a
/// record whose cell_seed, runs and config block agree with the header.
/// Throws std::runtime_error otherwise. Defined in cell_cache.cpp.
[[nodiscard]] CacheEntry read_cache_entry(const std::string& text);

/// What names one sweep. Streams, documents and manifests belong
/// to the same sweep exactly when these fields agree; a site with no
/// notion of a field (a document records no `deterministic` flag, a
/// manifest no shard) leaves it at its default.
struct SweepIdentity {
  std::string name;
  std::uint64_t base_seed = 0;
  std::uint64_t grid_hash = 0;
  std::uint64_t cells_total = 0;
  bool deterministic = false;
  int shard_index = 0;
  int shard_count = 1;
};

[[nodiscard]] SweepIdentity identity_of(const CellStreamHeader& header);
[[nodiscard]] SweepIdentity identity_of(const SweepJson& document);
/// Full-grid identity (shard 0-of-1). Defined in fleet/shardmap.cpp.
[[nodiscard]] SweepIdentity identity_of(const ShardMapManifest& manifest);

/// The one sweep-identity comparison: empty when `have` and `want`
/// describe the same sweep, otherwise the first differing field with both
/// values, e.g. "grid_hash 12 vs 34". Callers phrase the error.
[[nodiscard]] std::string identity_mismatch(const SweepIdentity& have,
                                            const SweepIdentity& want);

/// One input of fold_sweep: the identity its producer declared (a stream
/// header, a shard document, a fleet manifest) and its records.
struct FoldInput {
  SweepIdentity identity;
  std::vector<SweepJsonCell> cells;
};

/// The one fold from cell records to a "slpdas.sweep.v2" document, behind
/// merge_sweep_shards, fold_cell_stream and fold_fleet_directory. Every
/// input's identity must equal `expected`; the pooled records, sorted by
/// index, must cover each cell of `expected`'s shard residue class
/// (index % shard_count == shard_index, index < cells_total) exactly
/// once. The document carries `expected`'s identity, threads and
/// distinct_worker_threads 0, and wall_seconds as the sum of the cell
/// wall clocks; callers overwrite whatever they know better. `context`
/// prefixes every error. Throws std::runtime_error.
[[nodiscard]] SweepJson fold_sweep(const SweepIdentity& expected,
                                   std::vector<FoldInput> inputs,
                                   std::string_view context);

}  // namespace detail
}  // namespace slpdas::core
