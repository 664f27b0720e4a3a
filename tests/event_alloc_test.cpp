// Locks in the typed event core's headline property: once a simulation
// reaches steady state, executing delivery and timer events performs ZERO
// heap allocations. The test binary replaces the global allocation
// functions with counting wrappers and runs a ping-pong network through
// tens of thousands of events after a warm-up phase (which is allowed to
// allocate: vectors grow to their high-water marks, counters intern their
// keys). Any closure, map node or refcount block sneaking back onto the
// hot path turns the delta positive and fails loudly.
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

}  // namespace

// Counting replacements for the global allocation functions. Only this
// test binary links them; gtest and the warm-up phase allocate freely —
// the assertion is on the DELTA across the measured window.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* pointer = std::malloc(size != 0 ? size : 1)) {
    return pointer;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
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

/// Runs a warmed-up ping-pong simulation for ten more simulated seconds
/// and asserts the window allocated nothing.
void run_measured_window(Simulator& simulator) {
  const std::uint64_t events_before = simulator.events_executed();
  const std::uint64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);

  const SimTime start = simulator.now();
  simulator.run_until(start + 10 * kSecond);

  const std::uint64_t events_executed =
      simulator.events_executed() - events_before;
  const std::uint64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - allocations_before;
  // ~3 timer fires + ~4 deliveries per millisecond for ten seconds.
  EXPECT_GT(events_executed, 50000u);
  EXPECT_GT(simulator.deliveries_executed(), 0u);
  EXPECT_GT(simulator.timers_fired(), 0u);
  EXPECT_EQ(allocations, 0u)
      << "the delivery/timer hot path allocated " << allocations
      << " times across " << events_executed << " events";
}

TEST(EventAllocTest, SteadyStateDeliveryAndTimerPathAllocatesNothing) {
  const wsn::Topology line = wsn::make_line(3);
  Simulator simulator(line.graph, make_ideal_radio(), 1);
  for (wsn::NodeId n = 0; n < 3; ++n) {
    simulator.add_process(n, std::make_unique<PingProcess>());
  }

  // Warm-up: heap vector, slot tables, traffic counters and the per-type
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
  // shuffles between them — without a single further allocation. Also
  // exercised on the forced heap backend.
  for (const auto backend :
       {EventQueue::Backend::kCalendar, EventQueue::Backend::kHeap}) {
    EventQueue queue(backend);
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
        << "reserved queue allocated " << allocations << " times (backend "
        << (backend == EventQueue::Backend::kCalendar ? "calendar" : "heap")
        << ")";
  }
}

/// The phase-prefix fork's allocation contract: the FIRST seed of a batch
/// may allocate freely (vectors, pools and the node-state arena all grow
/// to their high-water marks), but once reset_run rewinds everything in
/// place, a subsequent seed's steady state — here, the data phase, after
/// a couple of warm periods let this seed's payload pools and counters
/// settle — must not allocate at all. Runs the REAL protocols (DAS and
/// the SLP extension) under the production noise model, not the ping
/// fixture, so any per-seed allocation sneaking into a protocol handler,
/// the pooled-message path or the queue/arena reset fails here.
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
  const std::uint64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  simulator.run_until(data_start + 8 * period);
  const std::uint64_t events_executed =
      simulator.events_executed() - events_before;
  const std::uint64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - allocations_before;
  // ~80 events per data-phase period on the side-5 grid: the NORMAL
  // deliveries plus one frame-clock event per period boundary, window end
  // and occupied data slot; six periods measured.
  EXPECT_GT(events_executed, 400u);
  EXPECT_EQ(allocations, 0u)
      << "the second seed of a forked batch allocated " << allocations
      << " times across " << events_executed << " data-phase events";
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

}  // namespace
}  // namespace slpdas::sim
