// The seed-independent prefix of a run — everything a cell's N seeded
// runs share because it is a pure function of (config, topology) alone.
//
// Conceptually a run is  setup-constants → seeded simulation ; the
// PhasePrefix is a named snapshot of the first part: the derived
// protocol configs, the safety-period BFS, the activation / end-time
// arithmetic, and the immutable HELLO beacon payloads every node of
// every seed broadcasts verbatim. RunBatch captures one PhasePrefix per
// cell and forks seeds from it (see run_batch.hpp); capture() is the
// ONLY place this state is computed. RunBatch holds the result as a
// `const` member, so after capture the compiler keeps the prefix
// read-only for every concurrent worker (tests/prefix_const_check.cmake
// pins that a write through RunBatch::prefix() does not compile).
#pragma once

#include <cstdint>

#include "slpdas/core/experiment.hpp"
#include "slpdas/das/protocol.hpp"
#include "slpdas/phantom/phantom_routing.hpp"
#include "slpdas/sim/message.hpp"
#include "slpdas/sim/time.hpp"
#include "slpdas/slp/slp_das.hpp"
#include "slpdas/verify/safety_period.hpp"

namespace slpdas::core {

struct PhasePrefix {
  // Derived protocol configurations.
  das::DasConfig das{};
  slp::SlpConfig slp{};
  phantom::PhantomConfig phantom{};
  bool is_phantom = false;

  // Safety-period BFS over the topology (paper Section VI-B).
  verify::SafetyPeriod safety{};

  // Phase timeline: data phase + attacker start, and the two end bounds.
  sim::SimTime activation = 0;  ///< data phase + attacker start
  sim::SimTime safety_end = 0;  ///< activation + safety period
  sim::SimTime run_end = 0;     ///< min(safety_end, upper time bound)

  // Immutable, payload-free HELLO beacons: one shared instance serves
  // every node of every seed (das/slp and phantom name their beacons
  // "HELLO" via distinct classes, hence two pointers).
  sim::MessagePtr das_hello;
  sim::MessagePtr phantom_hello;

  /// A DAS or SLP-DAS cell whose per-run Ninfo tables
  /// (das::ninfo_table_bytes) exceed this many bytes is refused by
  /// capture: on a random placement a node's id window is nearly all N
  /// ids, so the tables grow as N² and a large enough spec would die of
  /// allocation failure mid-run instead of failing with a typed error.
  static constexpr std::uint64_t kMaxNinfoBytes = std::uint64_t{4} << 30;

  /// Captures the prefix for `config` against `topology` (which must be
  /// config.topology.build()'s result). Throws std::invalid_argument on
  /// an invalid source/sink — the per-run validation, done once — and on
  /// a DAS or SLP-DAS cell over kMaxNinfoBytes, before any per-node
  /// protocol state exists.
  [[nodiscard]] static PhasePrefix capture(const ExperimentConfig& config,
                                           const wsn::Topology& topology);
};

}  // namespace slpdas::core
