// The fleet fold: every cell's done record -> one unsharded
// "slpdas.sweep.v2" document, byte-identical (under deterministic timing)
// to a single-process run. This is the single-threaded stable merge of
// the determinism contract — all the parallelism happened in the workers.
#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "../cell_record.hpp"
#include "slpdas/core/fleet.hpp"

namespace slpdas::core {

namespace detail {

SweepJsonCell read_done_record(const ClaimDir& claims, std::uint64_t index) {
  const std::string context =
      "fleet: done record of cell " + std::to_string(index);
  const std::string path = claims.done_path(index);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error(context + ": missing (" + path + ")");
  }
  std::ostringstream text;
  text << in.rdbuf();
  SweepJsonCell cell;
  try {
    JsonParser parser(std::move(text).str());
    cell = parse_cell_json(parser.parse());
  } catch (const std::exception& error) {
    throw std::runtime_error(context + ": " + error.what());
  }
  if (cell.index != index) {
    throw std::runtime_error(context + ": names cell " +
                             std::to_string(cell.index));
  }
  return cell;
}

}  // namespace detail

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
    inputs[0].cells.push_back(detail::read_done_record(claims, index));
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
