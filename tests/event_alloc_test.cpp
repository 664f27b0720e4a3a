// Locks in the typed event core's headline property: once a simulation
// reaches steady state, executing delivery and timer events performs ZERO
// heap allocations. The test binary replaces the global allocation
// functions with counting wrappers and runs a ping-pong network through
// tens of thousands of events after a warm-up phase (which is allowed to
// allocate: vectors grow to their high-water marks, counters intern their
// keys). Any closure, map node or refcount block sneaking back onto the
// hot path turns the delta positive and fails loudly. The wrappers also
// count bytes, which bounds the DAS protocol's per-node start-up state.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "slpdas/das/protocol.hpp"
#include "slpdas/sim/simulator.hpp"
#include "slpdas/slp/slp_das.hpp"
#include "slpdas/wsn/topology.hpp"
#include "slpdas/wsn/topology_spec.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_allocated_bytes{0};

void count_allocation(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
}

}  // namespace

// Counting replacements for the global allocation functions. Only this
// test binary links them; gtest and the warm-up phase allocate freely —
// the assertion is on the DELTA across the measured window.
void* operator new(std::size_t size) {
  count_allocation(size);
  if (void* pointer = std::malloc(size != 0 ? size : 1)) {
    return pointer;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  count_allocation(size);
  return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  count_allocation(size);
  // aligned_alloc requires size to be a multiple of the alignment.
  const auto align = static_cast<std::size_t>(alignment);
  const std::size_t rounded = (size != 0 ? size + align - 1 : align) &
                              ~(align - 1);
  if (void* pointer = std::aligned_alloc(align, rounded)) {
    return pointer;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return ::operator new(size, alignment);
}
void operator delete(void* pointer) noexcept { std::free(pointer); }
void operator delete[](void* pointer) noexcept { std::free(pointer); }
void operator delete(void* pointer, std::size_t) noexcept {
  std::free(pointer);
}
void operator delete[](void* pointer, std::size_t) noexcept {
  std::free(pointer);
}
void operator delete(void* pointer, const std::nothrow_t&) noexcept {
  std::free(pointer);
}
void operator delete[](void* pointer, const std::nothrow_t&) noexcept {
  std::free(pointer);
}
void operator delete(void* pointer, std::align_val_t) noexcept {
  std::free(pointer);
}
void operator delete[](void* pointer, std::align_val_t) noexcept {
  std::free(pointer);
}
void operator delete(void* pointer, std::size_t, std::align_val_t) noexcept {
  std::free(pointer);
}
void operator delete[](void* pointer, std::size_t, std::align_val_t) noexcept {
  std::free(pointer);
}

namespace slpdas::sim {
namespace {

struct PingMessage final : Message {
  [[nodiscard]] const char* name() const noexcept override { return "PING"; }
};

/// Broadcasts one cached immutable message per timer tick, forever. The
/// handler itself allocates nothing, so every allocation observed in
/// steady state would come from the event machinery.
class PingProcess final : public Process {
 public:
  void on_start() override {
    message_ = std::make_shared<PingMessage>();
    set_timer(1, kMillisecond);
  }
  void on_timer(int) override {
    broadcast(message_);
    set_timer(1, kMillisecond);
  }
  void on_message(wsn::NodeId, const Message&) override { ++received_; }

 private:
  MessagePtr message_;
  std::uint64_t received_ = 0;
};

/// Receptions dispatched so far, network-wide. The measured windows size
/// their work floors in receptions: a broadcast is one queue event
/// however many neighbours hear it, so events undercount the work.
std::uint64_t receptions(const Simulator& simulator) {
  std::uint64_t total = 0;
  for (wsn::NodeId n = 0; n < simulator.graph().node_count(); ++n) {
    total += simulator.traffic(n).received;
  }
  return total;
}

/// Runs a warmed-up ping-pong simulation for ten more simulated seconds
/// and asserts the window allocated nothing.
void run_measured_window(Simulator& simulator) {
  const std::uint64_t events_before = simulator.events_executed();
  const std::uint64_t receptions_before = receptions(simulator);
  const std::uint64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);

  const SimTime start = simulator.now();
  simulator.run_until(start + 10 * kSecond);

  const std::uint64_t events_executed =
      simulator.events_executed() - events_before;
  const std::uint64_t received = receptions(simulator) - receptions_before;
  const std::uint64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - allocations_before;
  // 4 receptions per millisecond (the line's four directed links) for
  // ten seconds, plus a timer fire and a broadcast event per node.
  EXPECT_GT(received, 35000u);
  EXPECT_GT(simulator.deliveries_executed(), 0u);
  EXPECT_GT(simulator.timers_fired(), 0u);
  EXPECT_EQ(allocations, 0u)
      << "the delivery/timer hot path allocated " << allocations
      << " times across " << events_executed << " events (" << received
      << " receptions)";
}

TEST(EventAllocTest, SteadyStateDeliveryAndTimerPathAllocatesNothing) {
  const wsn::Topology line = wsn::make_line(3);
  Simulator simulator(line.graph, make_ideal_radio(), 1);
  for (wsn::NodeId n = 0; n < 3; ++n) {
    simulator.add_process(n, std::make_unique<PingProcess>());
  }

  // Warm-up: queue storage, slot tables, traffic counters and the per-type
  // send map all reach their steady sizes.
  simulator.run_until(100 * kMillisecond);
  run_measured_window(simulator);
}

TEST(EventAllocTest, QueuePreSizingMakesWarmupNearlyImmediate) {
  // The Simulator pre-sizes its event queue (and every dense per-node
  // table) from the topology at construction, so "steady state" starts
  // almost immediately: two timer ticks — enough for processes to build
  // their cached payloads and for the first bucket transition — and the
  // remaining ten simulated seconds must not allocate once.
  const wsn::Topology line = wsn::make_line(3);
  Simulator simulator(line.graph, make_ideal_radio(), 1);
  for (wsn::NodeId n = 0; n < 3; ++n) {
    simulator.add_process(n, std::make_unique<PingProcess>());
  }
  simulator.run_until(2 * kMillisecond);
  run_measured_window(simulator);
}

TEST(EventAllocTest, ReservedQueueAbsorbsItsPendingBudgetWithoutAllocating) {
  // EventQueue::reserve(pending, staged) must cover repeated fill/drain
  // cycles of up to `pending` timer events across the whole calendar —
  // active-window inserts, bucket bins, far overflow and the refill
  // shuffles between them — without a single further allocation.
  EventQueue queue;
  constexpr std::size_t kPending = 1000;
  queue.reserve(kPending, 8);
  const std::uint64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  SimTime now = 0;
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (std::size_t i = 0; i < kPending; ++i) {
      // Spread across bins, the active window and the far overflow.
      queue.push_timer(now + static_cast<SimTime>(i) * 4096, 0, 1, i);
    }
    while (!queue.empty()) {
      (void)queue.pop(now);
    }
  }
  const std::uint64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - allocations_before;
  EXPECT_EQ(allocations, 0u)
      << "reserved queue allocated " << allocations << " times";
}

TEST(EventAllocTest, BroadcastSlotsKeepReceiverCapacityAcrossReuseAndReset) {
  // A broadcast's receivers live in its payload slot. Once a first pass
  // has grown the slots, recycling them — within a run and across
  // reset_run — must reuse that receiver capacity, not reallocate it.
  EventQueue queue;
  const MessagePtr message = std::make_shared<PingMessage>();
  const auto cycle = [&] {
    SimTime now = 0;
    for (int round = 0; round < 4; ++round) {
      for (wsn::NodeId from = 0; from < 8; ++from) {
        const std::uint32_t slot =
            queue.push_broadcast(now + kMillisecond, from, message);
        for (wsn::NodeId to = 0; to < 6 + from % 3; ++to) {
          queue.add_reception(slot, {to, 0});
        }
      }
      while (!queue.empty()) {
        queue.release_message(queue.pop(now).delivery.message_slot);
      }
    }
  };
  cycle();
  const std::uint64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  cycle();
  queue.reset_run();
  cycle();
  const std::uint64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - allocations_before;
  EXPECT_EQ(allocations, 0u);
}

/// The phase-prefix fork's allocation contract: the FIRST seed of a batch
/// may allocate freely (vectors and pools all grow to their high-water
/// marks), but once reset_run rewinds everything in
/// place, a subsequent seed's steady state — here, the data phase, after
/// a couple of warm periods let this seed's payload pools and counters
/// settle — must not allocate at all. Runs the REAL protocols (DAS and
/// the SLP extension) under the production noise model, not the ping
/// fixture, so any per-seed allocation sneaking into a protocol handler,
/// the pooled-message path or the queue and node-state reset fails here.
/// Phantom routing is deliberately not covered: its std::set/map-based
/// bookkeeping allocates per insert by design (it is not on the paper's
/// hot sweep path).
template <typename ProcessFactory>
void run_second_seed_window(ProcessFactory make_process) {
  const wsn::Topology grid = wsn::TopologySpec::grid(5).build();
  const das::DasConfig das_config{};
  const SimTime period = das_config.period();
  const SimTime data_start = das_config.minimum_setup_periods * period;

  Simulator simulator(grid.graph, std::make_unique<CasinoLabNoise>(), 1);
  for (wsn::NodeId n = 0; n < grid.graph.node_count(); ++n) {
    simulator.add_process(n, make_process(grid));
  }
  // Seed 1 end-to-end: establishes every high-water mark.
  simulator.run_until(data_start + 10 * period);

  // Seed 2: setup plus two warm data-phase periods may still allocate
  // (this seed's first pooled sends, counter re-interning); the measured
  // window after that must be allocation-free.
  simulator.reset_run(2);
  simulator.run_until(data_start + 2 * period);

  const std::uint64_t events_before = simulator.events_executed();
  const std::uint64_t receptions_before = receptions(simulator);
  const std::uint64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  simulator.run_until(data_start + 8 * period);
  const std::uint64_t events_executed =
      simulator.events_executed() - events_before;
  const std::uint64_t received = receptions(simulator) - receptions_before;
  const std::uint64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - allocations_before;
  // 60-70 receptions per data-phase period on the side-5 grid (the
  // NORMAL messages' receptions, ~365-425 over the window); six periods
  // measured.
  EXPECT_GT(received, 300u);
  EXPECT_EQ(allocations, 0u)
      << "the second seed of a forked batch allocated " << allocations
      << " times across " << events_executed << " data-phase events ("
      << received << " receptions)";
}

TEST(EventAllocTest, SecondSeedOfForkedDasBatchAllocatesNothing) {
  run_second_seed_window([](const wsn::Topology& topology) {
    return std::make_unique<das::ProtectionlessDas>(
        das::DasConfig{}, topology.sink, topology.source);
  });
}

TEST(EventAllocTest, SecondSeedOfForkedSlpBatchAllocatesNothing) {
  run_second_seed_window([](const wsn::Topology& topology) {
    return std::make_unique<slp::SlpDas>(slp::SlpConfig{}, topology.sink,
                                         topology.source);
  });
}

/// Bounds what a DAS network allocates to start: building the processes
/// and running every node's on_start. Each node keeps N-entry Ninfo[] and
/// neighbour-membership tables (9 bytes per node pair) and one Others[j]
/// list per graph neighbour j; a per-node table of N competitor lists
/// (24 more bytes per node pair) would break the 16-byte bound.
TEST(EventAllocTest, DasStartupStateStaysUnderSixteenBytesPerNodePair) {
  const wsn::Topology grid = wsn::TopologySpec::grid(31).build();
  const auto nodes = static_cast<std::uint64_t>(grid.graph.node_count());
  ASSERT_EQ(nodes, 961u);

  const std::uint64_t bytes_before =
      g_allocated_bytes.load(std::memory_order_relaxed);
  Simulator simulator(grid.graph, std::make_unique<CasinoLabNoise>(), 1);
  for (wsn::NodeId n = 0; n < grid.graph.node_count(); ++n) {
    simulator.add_process(n, std::make_unique<das::ProtectionlessDas>(
                                 das::DasConfig{}, grid.sink, grid.source));
  }
  simulator.run_until(1);
  const std::uint64_t bytes =
      g_allocated_bytes.load(std::memory_order_relaxed) - bytes_before;
  EXPECT_LT(bytes, 16 * nodes * nodes)
      << bytes << " bytes for " << nodes << " nodes ("
      << static_cast<double>(bytes) / static_cast<double>(nodes * nodes)
      << " per node pair)";
}

}  // namespace
}  // namespace slpdas::sim
