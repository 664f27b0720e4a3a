// Whole-cell execution: the same four seeds of a side-7 cell share one
// RunBatch (topology-derived protocol state hoisted once, seeds
// back-to-back) — one sweep-engine slice. The events/s counter is the
// sweep's figure of merit.
//
// The cell_prefix_fork_* pair isolates the FORK itself: the RunBatch (and
// its PhasePrefix) is built once outside the timed loop, so each
// iteration measures only Fork construction + reset-driven seed replays
// vs cold-constructing a simulator per seed through run_one. The delta
// against cell_batched_* is the per-iteration prefix capture cost.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "slpdas/core/experiment.hpp"
#include "slpdas/core/run_batch.hpp"
#include "slpdas/rng.hpp"
#include "slpdas/wsn/topology_spec.hpp"

namespace {

using namespace slpdas;

constexpr std::uint64_t kBaseSeed = 101;
constexpr int kSeedsPerIteration = 4;

core::ExperimentConfig make_config(core::ProtocolKind protocol) {
  core::ExperimentConfig config;
  config.topology = wsn::TopologySpec::grid(7);
  config.protocol = protocol;
  config.radio = core::RadioKind::kCasinoLab;
  config.check_schedules = false;
  return config;
}

void run_cell(benchmark::State& state, core::ProtocolKind protocol) {
  const core::ExperimentConfig config = make_config(protocol);
  const wsn::Topology topology = config.topology.build();
  std::vector<core::RunResult> results(kSeedsPerIteration);
  std::uint64_t events = 0;
  for (auto _ : state) {
    const core::RunBatch batch(config, topology);
    batch.run_range(kBaseSeed, 0, kSeedsPerIteration, results.data());
    for (const core::RunResult& result : results) {
      events += result.events_executed;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kSeedsPerIteration);
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}

void run_prefix_fork(benchmark::State& state, core::ProtocolKind protocol,
                     bool forked) {
  const core::ExperimentConfig config = make_config(protocol);
  const wsn::Topology topology = config.topology.build();
  const core::RunBatch batch(config, topology);  // prefix captured once
  std::vector<core::RunResult> results(kSeedsPerIteration);
  std::uint64_t events = 0;
  for (auto _ : state) {
    if (forked) {
      core::RunBatch::Fork fork(batch);
      for (int run = 0; run < kSeedsPerIteration; ++run) {
        results[static_cast<std::size_t>(run)] = fork.run(
            derive_seed(kBaseSeed, static_cast<std::uint64_t>(run)));
      }
    } else {
      for (int run = 0; run < kSeedsPerIteration; ++run) {
        results[static_cast<std::size_t>(run)] = batch.run_one(
            derive_seed(kBaseSeed, static_cast<std::uint64_t>(run)));
      }
    }
    for (const core::RunResult& result : results) {
      events += result.events_executed;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kSeedsPerIteration);
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}

void cell_batched_das(benchmark::State& state) {
  run_cell(state, core::ProtocolKind::kProtectionlessDas);
}

void cell_batched_slp(benchmark::State& state) {
  run_cell(state, core::ProtocolKind::kSlpDas);
}

void cell_prefix_fork_das(benchmark::State& state) {
  run_prefix_fork(state, core::ProtocolKind::kProtectionlessDas, true);
}

void cell_prefix_cold_das(benchmark::State& state) {
  run_prefix_fork(state, core::ProtocolKind::kProtectionlessDas, false);
}

void cell_prefix_fork_slp(benchmark::State& state) {
  run_prefix_fork(state, core::ProtocolKind::kSlpDas, true);
}

void cell_prefix_cold_slp(benchmark::State& state) {
  run_prefix_fork(state, core::ProtocolKind::kSlpDas, false);
}

BENCHMARK(cell_batched_das)->Unit(benchmark::kMillisecond);
BENCHMARK(cell_batched_slp)->Unit(benchmark::kMillisecond);
BENCHMARK(cell_prefix_fork_das)->Unit(benchmark::kMillisecond);
BENCHMARK(cell_prefix_cold_das)->Unit(benchmark::kMillisecond);
BENCHMARK(cell_prefix_fork_slp)->Unit(benchmark::kMillisecond);
BENCHMARK(cell_prefix_cold_slp)->Unit(benchmark::kMillisecond);

}  // namespace
