// Declarative topology specs.
//
// A TopologySpec is a small value type that DESCRIBES a topology instead
// of materialising it: experiment configs hold the spec (a few dozen
// bytes, however large the network), sweeps copy specs around freely, and
// the graph itself is built lazily — once per cell, inside the worker
// that runs it. Every spec has a canonical string form, so experiments
// are serialisable into sweep documents and composable from the command
// line:
//
//   grid:21                     square grid, side 21, spacing 4.5 m
//   grid:15x31:spacing=4.5      width x height grid
//   line:64                     path graph of 64 nodes
//   ring:100                    cycle of 100 nodes
//   udisk:n=400,r=10,seed=7     random unit disk (area/seed/attempts
//                               optional; defaults 100 / 1 / 64)
//
// parse() and to_string() round-trip: parse(s.to_string()) == s for every
// valid spec, and to_string() is canonical (default-valued options are
// omitted, so equal specs always print equal strings).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "slpdas/wsn/topology.hpp"

namespace slpdas::wsn {

struct TopologySpec {
  enum class Kind { kGrid, kLine, kRing, kUnitDisk };

  Kind kind = Kind::kGrid;
  /// Grid width; node count for line/ring/udisk.
  int width = 11;
  /// Grid height (== width for the square form).
  int height = 11;
  /// Node spacing in metres (grid/line/ring; ignored for udisk).
  double spacing = 4.5;
  // Unit-disk parameters (ignored for the other kinds).
  double area_side = 100.0;
  double radio_range = 15.0;
  std::uint64_t seed = 1;
  int max_attempts = 64;

  /// The paper's square evaluation grid (side odd and >= 3).
  [[nodiscard]] static TopologySpec grid(int side, double spacing = 4.5);
  /// Rectangular grid (both dimensions >= 1, at least 2 nodes). Named
  /// distinctly rather than overloading grid(): grid(15, 31) would
  /// otherwise resolve to (side, spacing) via int -> double and silently
  /// describe a different experiment.
  [[nodiscard]] static TopologySpec grid_rect(int width, int height,
                                              double spacing = 4.5);
  [[nodiscard]] static TopologySpec line(int node_count,
                                         double spacing = 4.5);
  [[nodiscard]] static TopologySpec ring(int node_count,
                                         double spacing = 4.5);
  [[nodiscard]] static TopologySpec unit_disk(int node_count,
                                              double radio_range = 15.0,
                                              double area_side = 100.0,
                                              std::uint64_t seed = 1);

  /// Largest node count a spec may describe: the million-node networks
  /// the project aims at. Parsing, the factories and build() refuse a
  /// larger spec with std::invalid_argument naming this ceiling, before
  /// anything is allocated, instead of running out of memory inside the
  /// build. (A spec under it still has to fit the per-run protocol state
  /// of whatever runs on it.)
  static constexpr std::int64_t kMaxNodes = 1'000'000;

  /// Parses the canonical grammar above. Throws std::invalid_argument
  /// naming the offending token (unknown kind, bad key, zero side, even
  /// square side, a node count above kMaxNodes, ...) — the same
  /// validation the factories apply, so a spec that parses also builds
  /// (unit-disk connectivity aside).
  [[nodiscard]] static TopologySpec parse(std::string_view text);

  /// Canonical string form; parse(to_string()) reproduces this spec.
  [[nodiscard]] std::string to_string() const;

  /// Materialises the topology (make_grid / make_line / make_ring /
  /// make_random_unit_disk). Deterministic: equal specs always build
  /// bit-identical topologies (the unit disk draws from its own seed).
  [[nodiscard]] Topology build() const;

  /// Number of nodes the built topology will have, without building it.
  [[nodiscard]] std::int64_t node_count() const noexcept;

  friend bool operator==(const TopologySpec&, const TopologySpec&) = default;
};

}  // namespace slpdas::wsn
