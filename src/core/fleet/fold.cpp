// The fleet fold: every cell's done marker -> one unsharded
// "slpdas.sweep.v2" document, byte-identical (under deterministic timing)
// to a single-process run. This is the single-threaded stable merge of
// the determinism contract — all the parallelism happened in the workers.
#include <cstdint>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "../atomic_file.hpp"
#include "../cell_record.hpp"
#include "slpdas/core/fleet.hpp"

namespace slpdas::core {

SweepJson fold_fleet_directory(const std::string& directory) {
  const std::optional<ShardMapManifest> manifest =
      read_shardmap_manifest(directory);
  if (!manifest) {
    throw std::runtime_error("fleet fold: no shardmap.json in " + directory);
  }
  const ClaimDir claims(directory);
  const detail::SweepIdentity identity = detail::identity_of(*manifest);
  std::vector<detail::FoldInput> inputs(1);
  inputs[0].identity = identity;
  for (std::uint64_t index = 0; index < manifest->cells_total; ++index) {
    try {
      detail::CacheEntry entry =
          detail::read_cache_entry(
          detail::read_file(claims.done_path(index)));
      if (entry.cell.index != index) {
        throw std::runtime_error("names cell " +
                                 std::to_string(entry.cell.index));
      }
      // Zeroed and real wall clocks must not mix in one document.
      if (entry.key.deterministic != manifest->deterministic) {
        throw std::runtime_error("another timing mode than the manifest's");
      }
      inputs[0].cells.push_back(std::move(entry.cell));
    } catch (const std::exception& error) {
      throw std::runtime_error("fleet: done record of cell " +
                               std::to_string(index) + ": " + error.what());
    }
  }
  SweepJson document =
      detail::fold_sweep(identity, std::move(inputs), "fleet fold");
  // workers x worker_threads: the pool size a single-process run would
  // have used, so the folded document is byte-identical to `run
  // --threads N` (results never depend on the pool size; the field is
  // descriptive).
  document.threads = manifest->threads_total;
  return document;
}

}  // namespace slpdas::core
