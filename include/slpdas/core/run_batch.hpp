// Cell-granular batched run execution with phase-prefix forking.
//
// A sweep cell executes the same configuration under N seeds. Before this
// layer existed, every (cell, run) pair was an independent task that
// re-derived everything the seed does NOT influence: the DAS/SLP/phantom
// protocol configs, the safety-period BFS over the topology, and the
// activation/upper-bound time arithmetic. RunBatch hoists all of that
// into one core::PhasePrefix per cell — computed once per
// (config, topology) and shared read-only by every seed. The batch holds
// it as a `const` member, so no code path, member functions included,
// can write to it after capture; tests/prefix_const_check.cmake pins
// that a write through prefix() fails to compile.
//
// On top of the prefix sits the FORK: a Fork owns one Simulator (with its
// processes, attacker runtime, event-queue capacity and per-node state
// vectors) and replays seed after seed through Simulator::reset_run, which
// clears that state but keeps its capacity, so seed N+1
// starts from warm capacity with zero construction and, in steady state,
// zero heap allocation. Per-run outputs land in caller-provided dense
// RunResult arrays (one contiguous slot per seed), so a cell's results
// stay cache-dense no matter how its seed range was sliced across
// workers.
//
// Determinism contract: Fork::run(seed) and run_one(seed) are pure
// functions of (config, topology, seed) and bit-identical to each other
// — everything in the prefix is itself a pure function of (config,
// topology), and reset_run rewinds every per-run mutable field to its
// just-constructed value. batch_test pins that equality: forked runs
// against cold run_one calls in any seed order, and for every registered
// scenario's cells; the golden fingerprints pin the sweep documents.
#pragma once

#include <cstdint>

#include "slpdas/attacker/runtime.hpp"
#include "slpdas/core/experiment.hpp"
#include "slpdas/core/phase_prefix.hpp"
#include "slpdas/sim/simulator.hpp"

namespace slpdas::core {

class RunBatch {
 public:
  /// Captures the phase prefix of `config` against `topology`. Both must
  /// outlive the batch and `topology` must be config.topology.build()'s
  /// result — a mismatched graph silently simulates a different
  /// experiment. Throws std::invalid_argument on an invalid source/sink
  /// (the per-run validation, done once).
  RunBatch(const ExperimentConfig& config, const wsn::Topology& topology);

  [[nodiscard]] const ExperimentConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const wsn::Topology& topology() const noexcept {
    return topology_;
  }
  [[nodiscard]] const PhasePrefix& prefix() const noexcept { return prefix_; }

  /// One forked execution context: a Simulator + attacker runtime built
  /// once from the batch's phase prefix, then reset (not reconstructed)
  /// between seeds. NOT thread-safe — each worker builds its own Fork
  /// over the shared immutable batch; any number of Forks may run
  /// concurrently.
  class Fork {
   public:
    explicit Fork(const RunBatch& batch);

    /// Executes one seeded run from the warm prefix snapshot.
    /// Bit-identical to batch.run_one(seed), in any seed order.
    [[nodiscard]] RunResult run(std::uint64_t seed);

   private:
    const RunBatch& batch_;
    sim::Simulator simulator_;
    attacker::AttackerRuntime eavesdropper_;
  };

  /// Executes one seeded run against cold-constructed state (the
  /// reference path: construction IS the reset). Thread-safe: the batch
  /// is immutable after construction.
  [[nodiscard]] RunResult run_one(std::uint64_t seed) const;

  /// Executes run indices [first, last) back-to-back through one local
  /// Fork, seeding run i with derive_seed(base_seed, i) — the sweep's
  /// per-run seed derivation — and writing run i's
  /// result to out[i - first]. `out` must have room for last - first
  /// results. Thread-safe: the Fork is local to the call, so concurrent
  /// run_range calls on one batch (the sweep slicing a cell across
  /// workers) never share mutable state.
  void run_range(std::uint64_t base_seed, int first, int last,
                 RunResult* out) const;

 private:
  /// Shared tail of run_one / Fork::run: drives `simulator` (already
  /// seeded and populated) through setup, activation and the data phase,
  /// and extracts the RunResult.
  [[nodiscard]] RunResult execute(sim::Simulator& simulator,
                                  attacker::AttackerRuntime& eavesdropper)
      const;

  /// Populates `simulator` with one process per node from the prefix.
  void add_processes(sim::Simulator& simulator) const;

  const ExperimentConfig& config_;
  const wsn::Topology& topology_;
  const PhasePrefix prefix_;
};

}  // namespace slpdas::core
