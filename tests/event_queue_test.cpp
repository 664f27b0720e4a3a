// Tests for the deterministic typed event queue: time ordering plus FIFO
// tie-breaking across all three event kinds (the property that makes runs
// reproducible), shared-message staging/release, the calendar backend's
// equivalence to the forced heap (including its deterministic degradation
// on pathological horizons), and the simulator-level cancelled-timer skip
// at pop time.
#include "slpdas/sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "slpdas/rng.hpp"
#include "slpdas/sim/simulator.hpp"
#include "slpdas/wsn/topology.hpp"

namespace slpdas::sim {
namespace {

struct TestMessage final : Message {
  [[nodiscard]] const char* name() const noexcept override { return "TEST"; }
};

/// Pops every event, returning kinds in pop order and releasing whatever
/// resources the events hold.
std::vector<EventKind> drain(EventQueue& queue, SimTime& now) {
  std::vector<EventKind> kinds;
  while (!queue.empty()) {
    const Event event = queue.pop(now);
    kinds.push_back(event.kind());
    switch (event.kind()) {
      case EventKind::kDelivery:
        queue.release_message(event.delivery.message_slot);
        break;
      case EventKind::kControl:
        queue.take_control(event.control.callback_slot)();
        break;
      case EventKind::kTimer:
        break;
      case EventKind::kTimerGroup: {
        std::uint32_t cursor = queue.take_group(event);
        while (cursor != EventQueue::kNoSlot) {
          (void)queue.next_member(cursor);
        }
        break;
      }
    }
  }
  return kinds;
}

TEST(EventQueueTest, StartsEmpty) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(queue.staged_message_count(), 0u);
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.push_control(30, [&] { order.push_back(3); });
  queue.push_control(10, [&] { order.push_back(1); });
  queue.push_control(20, [&] { order.push_back(2); });
  SimTime now = 0;
  drain(queue, now);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(now, 30);
}

TEST(EventQueueTest, EqualTimesFireInInsertionOrder) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    queue.push_control(5, [&order, i] { order.push_back(i); });
  }
  SimTime now = 0;
  drain(queue, now);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventQueueTest, EqualTimesTieBreakAcrossKindsByInsertionOrder) {
  // A delivery, a timer and a control pushed at one timestamp pop in push
  // order — the cross-kind FIFO guarantee the protocol stack relies on
  // (e.g. a reception and a period-boundary timer landing on the same
  // microsecond must not reorder between runs or refactors).
  EventQueue queue;
  const std::uint32_t slot = queue.stage_message(std::make_shared<TestMessage>());
  queue.push_delivery(7, /*from=*/0, /*to=*/1, slot);
  queue.push_timer(7, /*node=*/1, /*timer_id=*/4, /*generation=*/1);
  queue.push_control(7, [] {});
  queue.push_delivery(7, /*from=*/0, /*to=*/2, slot);
  queue.push_timer(7, /*node=*/2, /*timer_id=*/4, /*generation=*/1);

  SimTime now = 0;
  const std::vector<EventKind> kinds = drain(queue, now);
  EXPECT_EQ(kinds,
            (std::vector<EventKind>{EventKind::kDelivery, EventKind::kTimer,
                                    EventKind::kControl, EventKind::kDelivery,
                                    EventKind::kTimer}));
  EXPECT_EQ(now, 7);
  EXPECT_EQ(queue.staged_message_count(), 0u);
}

TEST(EventQueueTest, DeliveriesShareOneStagedMessage) {
  EventQueue queue;
  auto message = std::make_shared<TestMessage>();
  const std::uint32_t slot = queue.stage_message(message);
  queue.push_delivery(1, 0, 1, slot);
  queue.push_delivery(1, 0, 2, slot);
  queue.push_delivery(1, 0, 3, slot);
  // One reference in the slot table plus the test's own handle: pushing
  // three deliveries copies nothing.
  EXPECT_EQ(message.use_count(), 2);
  EXPECT_EQ(queue.staged_message_count(), 1u);

  SimTime now = 0;
  int popped = 0;
  while (!queue.empty()) {
    const Event event = queue.pop(now);
    ASSERT_EQ(event.kind(), EventKind::kDelivery);
    EXPECT_EQ(&queue.message(event.delivery.message_slot), message.get());
    queue.release_message(event.delivery.message_slot);
    ++popped;
  }
  EXPECT_EQ(popped, 3);
  // The last release freed the slot.
  EXPECT_EQ(queue.staged_message_count(), 0u);
  EXPECT_EQ(message.use_count(), 1);
}

TEST(EventQueueTest, NextTimeReportsHead) {
  EventQueue queue;
  queue.push_timer(42, 0, 1, 1);
  queue.push_timer(7, 0, 2, 1);
  EXPECT_EQ(queue.next_time(), 7);
}

TEST(EventQueueTest, InterleavedPushPopKeepsOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.push_control(10, [&] { order.push_back(1); });
  SimTime now = 0;
  queue.take_control(queue.pop(now).control.callback_slot)();
  queue.push_control(5, [&] { order.push_back(2); });   // earlier absolute time,
  queue.push_control(20, [&] { order.push_back(3); });  // pushed later
  drain(queue, now);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, ClearReleasesMessageReferencesAndCallbacks) {
  EventQueue queue;
  auto message = std::make_shared<TestMessage>();
  const std::uint32_t slot = queue.stage_message(message);
  queue.push_delivery(1, 0, 1, slot);
  queue.push_delivery(2, 0, 2, slot);
  auto witness = std::make_shared<int>(0);
  queue.push_control(3, [witness] { ++*witness; });
  queue.push_timer(4, 0, 1, 1);
  // Staged but never pushed: clear() must free this one too.
  auto orphan = std::make_shared<TestMessage>();
  (void)queue.stage_message(orphan);
  EXPECT_EQ(message.use_count(), 2);
  EXPECT_EQ(witness.use_count(), 2);
  EXPECT_EQ(orphan.use_count(), 2);

  queue.clear();
  EXPECT_TRUE(queue.empty());
  // The staged payloads and the captured callback state were all released:
  // nothing but the test's own handles survive.
  EXPECT_EQ(queue.staged_message_count(), 0u);
  EXPECT_EQ(message.use_count(), 1);
  EXPECT_EQ(witness.use_count(), 1);
  EXPECT_EQ(orphan.use_count(), 1);
}

TEST(EventQueueTest, RejectsNullMessageAndNullAction) {
  EventQueue queue;
  EXPECT_THROW((void)queue.stage_message(nullptr), std::invalid_argument);
  EXPECT_THROW(queue.push_control(1, nullptr), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Calendar backend: equivalence to the forced heap, and the deterministic
// degradation triggers.
// ---------------------------------------------------------------------------

/// Pops every event of a timer-only queue, recording (timestamp, sequence).
std::vector<std::pair<SimTime, std::uint64_t>> drain_keys(EventQueue& queue) {
  std::vector<std::pair<SimTime, std::uint64_t>> keys;
  SimTime now = 0;
  while (!queue.empty()) {
    const Event event = queue.pop(now);
    keys.emplace_back(event.at, event.sequence());
  }
  return keys;
}

TEST(EventQueueBackendTest, ForcedHeapBackendIsConstructible) {
  EventQueue queue(EventQueue::Backend::kHeap);
  EXPECT_EQ(queue.backend(), EventQueue::Backend::kHeap);
  queue.push_timer(20, 0, 1, 1);
  queue.push_timer(10, 0, 1, 2);
  SimTime now = 0;
  EXPECT_EQ(queue.pop(now).at, 10);
  EXPECT_EQ(queue.pop(now).at, 20);
  EXPECT_EQ(now, 20);
}

TEST(EventQueueBackendTest, CalendarMatchesHeapOnMixedHorizonWorkload) {
  // The same randomised push/pop interleaving — propagation-scale pushes,
  // dissemination bursts, far-horizon tails, duplicate timestamps — must
  // pop in the identical (timestamp, sequence) order on both backends.
  // Sequence numbers advance identically on every push flavour, so equal
  // key streams mean bit-identical simulations.
  EventQueue calendar(EventQueue::Backend::kCalendar);
  EventQueue heap(EventQueue::Backend::kHeap);
  Rng rng(2024);
  SimTime calendar_now = 0;
  SimTime heap_now = 0;
  std::vector<std::pair<SimTime, std::uint64_t>> calendar_keys;
  std::vector<std::pair<SimTime, std::uint64_t>> heap_keys;
  SimTime now = 0;
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t action = rng.uniform(100);
    if (action < 60 || calendar.empty()) {
      SimTime delay;
      const std::uint64_t band = rng.uniform(100);
      if (band < 80) {
        delay = static_cast<SimTime>(rng.uniform(50'000));  // slot scale
      } else if (band < 95) {
        delay = static_cast<SimTime>(rng.uniform(1'000'000));  // dissem
      } else {
        delay = static_cast<SimTime>(rng.uniform(20'000'000));  // far tail
      }
      const auto node = static_cast<wsn::NodeId>(rng.uniform(64));
      calendar.push_timer(now + delay, node, 1, 0);
      heap.push_timer(now + delay, node, 1, 0);
    } else {
      const Event from_calendar = calendar.pop(calendar_now);
      const Event from_heap = heap.pop(heap_now);
      calendar_keys.emplace_back(from_calendar.at, from_calendar.sequence());
      heap_keys.emplace_back(from_heap.at, from_heap.sequence());
      now = calendar_now;
    }
  }
  const auto calendar_tail = drain_keys(calendar);
  const auto heap_tail = drain_keys(heap);
  calendar_keys.insert(calendar_keys.end(), calendar_tail.begin(),
                       calendar_tail.end());
  heap_keys.insert(heap_keys.end(), heap_tail.begin(), heap_tail.end());
  ASSERT_EQ(calendar_keys.size(), heap_keys.size());
  EXPECT_EQ(calendar_keys, heap_keys);
  // This workload is calendar-friendly: no degradation.
  EXPECT_EQ(calendar.backend(), EventQueue::Backend::kCalendar);
}

TEST(EventQueueBackendTest, DegradesToHeapOnPathologicalFarHorizon) {
  // Thousands of events, each a calendar revolution apart: every refill
  // re-anchors and re-partitions the whole far overflow to surface ONE
  // event. The far-scan accounting must notice and migrate to the heap —
  // and the pop order must be unaffected.
  constexpr int kEvents = 4000;
  constexpr SimTime kStride =
      (static_cast<SimTime>(EventQueue::kNumBuckets) + 7)
      << EventQueue::kBucketShift;
  EventQueue calendar;
  EventQueue heap(EventQueue::Backend::kHeap);
  for (int i = 0; i < kEvents; ++i) {
    // Ascending, so all but the anchor land in the far overflow and every
    // pop's refill re-partitions the remaining far events.
    const SimTime at = static_cast<SimTime>(i + 1) * kStride;
    calendar.push_timer(at, 0, 1, 0);
    heap.push_timer(at, 0, 1, 0);
  }
  EXPECT_EQ(calendar.backend(), EventQueue::Backend::kCalendar);
  const auto calendar_keys = drain_keys(calendar);
  EXPECT_EQ(calendar.backend(), EventQueue::Backend::kHeap)
      << "far-horizon workload should have degraded the calendar";
  EXPECT_EQ(calendar_keys, drain_keys(heap));
}

TEST(EventQueueBackendTest, DegradesToHeapOnOvercrowdedSortedWindow) {
  // Descending timestamps inside one bucket: every push inserts at the
  // window's front, shifting the whole tail. Once the cumulative shift
  // cost dwarfs the push count the queue must switch to the heap rather
  // than go quadratic — again without reordering anything.
  constexpr int kEvents = 3000;
  EventQueue calendar;
  EventQueue heap(EventQueue::Backend::kHeap);
  for (int i = 0; i < kEvents; ++i) {
    const SimTime at = static_cast<SimTime>(kEvents - i);
    calendar.push_timer(at, 0, 1, 0);
    heap.push_timer(at, 0, 1, 0);
  }
  EXPECT_EQ(calendar.backend(), EventQueue::Backend::kHeap)
      << "descending same-bucket pushes should have degraded the calendar";
  EXPECT_EQ(drain_keys(calendar), drain_keys(heap));
}

TEST(EventQueueBackendTest, FarFirstPushDoesNotPullTheWindowAhead) {
  // The frame clock drains the queue at every period boundary, and the
  // first thing armed next is the following boundary, a whole period
  // ahead. The sorted window must stay on `now`: were it anchored on that
  // far event, every later push for the period in between would be a
  // front insert into the window — quadratic shifting, then a heap
  // degradation.
  constexpr int kEvents = 3000;
  EventQueue calendar;
  EventQueue heap(EventQueue::Backend::kHeap);
  calendar.push_timer(5'000'000, 0, 1, 0);
  heap.push_timer(5'000'000, 0, 1, 0);
  for (int i = 0; i < kEvents; ++i) {
    const SimTime at = 4'000'000 - static_cast<SimTime>(i) * 1000;
    calendar.push_timer(at, 0, 2, 0);
    heap.push_timer(at, 0, 2, 0);
  }
  EXPECT_EQ(calendar.backend(), EventQueue::Backend::kCalendar);
  EXPECT_EQ(drain_keys(calendar), drain_keys(heap));
  EXPECT_EQ(calendar.backend(), EventQueue::Backend::kCalendar);
}

TEST(EventQueueBackendTest, ReserveKeepsOrderAndSize) {
  EventQueue queue;
  queue.push_timer(30, 0, 1, 1);
  queue.push_timer(10, 0, 1, 2);
  queue.reserve(4096, 64);
  queue.push_timer(20, 0, 1, 3);
  EXPECT_EQ(queue.size(), 3u);
  SimTime now = 0;
  EXPECT_EQ(queue.pop(now).at, 10);
  EXPECT_EQ(queue.pop(now).at, 20);
  EXPECT_EQ(queue.pop(now).at, 30);
}

// ---------------------------------------------------------------------------
// Frame clock: expiries for one instant share a TimerGroup event.
// ---------------------------------------------------------------------------

/// One dispatched timer expiry: (timestamp, node, timer id, generation).
using Expiry = std::tuple<SimTime, wsn::NodeId, std::int32_t, std::uint64_t>;

/// Pops one event of a timer-only queue and appends the expiries it
/// dispatches: a group's members in order, or the lone timer.
void pop_expiries(EventQueue& queue, SimTime& now, std::vector<Expiry>& out) {
  const Event event = queue.pop(now);
  if (event.kind() == EventKind::kTimer) {
    out.emplace_back(event.at, event.timer.node, event.timer.timer_id,
                     event.timer.generation);
    return;
  }
  std::uint32_t cursor = queue.take_group(event);
  while (cursor != EventQueue::kNoSlot) {
    const TimerEvent timer = queue.next_member(cursor);
    out.emplace_back(event.at, timer.node, timer.timer_id, timer.generation);
  }
}

TEST(FrameClockQueueTest, ExpiriesForOneInstantShareOneEvent) {
  EventQueue queue;
  for (wsn::NodeId node = 0; node < 5; ++node) {
    queue.push_frame_timer(100, node, 1, 1);
  }
  queue.push_frame_timer(200, 0, 2, 1);  // another instant, its own group
  EXPECT_EQ(queue.size(), 2u);
  SimTime now = 0;
  const Event first = queue.pop(now);
  ASSERT_EQ(first.kind(), EventKind::kTimerGroup);
  std::vector<wsn::NodeId> members;
  std::uint32_t cursor = queue.take_group(first);
  while (cursor != EventQueue::kNoSlot) {
    members.push_back(queue.next_member(cursor).node);
  }
  EXPECT_EQ(members, (std::vector<wsn::NodeId>{0, 1, 2, 3, 4}));
  // The popped group is closed: a frame timer armed for the current
  // instant starts a new group instead of joining the dispatched one.
  queue.push_frame_timer(100, 7, 1, 1);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.next_time(), 100);
}

TEST(FrameClockQueueTest, AnyOtherPushForTheInstantClosesTheGroup) {
  EventQueue queue;
  const std::uint32_t slot = queue.stage_message(std::make_shared<TestMessage>());
  queue.push_frame_timer(50, 0, 1, 1);
  queue.push_frame_timer(60, 9, 1, 1);  // another instant: no effect on 50
  queue.push_frame_timer(50, 1, 1, 1);
  queue.push_delivery(50, 2, 3, slot);
  queue.push_frame_timer(50, 2, 1, 1);
  queue.push_timer(50, 3, 1, 1);
  queue.push_frame_timer(50, 3, 2, 1);
  queue.push_control(50, [] {});
  queue.push_frame_timer(50, 4, 1, 1);
  SimTime now = 0;
  EXPECT_EQ(drain(queue, now),
            (std::vector<EventKind>{
                EventKind::kTimerGroup, EventKind::kDelivery,
                EventKind::kTimerGroup, EventKind::kTimer,
                EventKind::kTimerGroup, EventKind::kControl,
                EventKind::kTimerGroup, EventKind::kTimerGroup}));
  EXPECT_EQ(queue.staged_message_count(), 0u);
}

TEST(FrameClockQueueTest, FlattenedOrderEqualsPlainTimersOnBothBackends) {
  // The same randomised push/pop interleaving, once with every frame timer
  // pushed as a plain timer: the flattened expiry streams must be equal,
  // on the calendar, on the forced heap, and across a reset_run.
  for (const auto backend :
       {EventQueue::Backend::kCalendar, EventQueue::Backend::kHeap}) {
    EventQueue framed(backend);
    EventQueue plain(backend);
    for (int pass = 0; pass < 2; ++pass) {
      Rng rng(77 + static_cast<std::uint64_t>(pass));
      SimTime now = 0;
      SimTime plain_now = 0;
      std::vector<Expiry> framed_stream;
      std::vector<Expiry> plain_stream;
      for (int step = 0; step < 20000 || !framed.empty(); ++step) {
        if (step < 20000 && (rng.uniform(100) < 55 || framed.empty())) {
          // Shared instants on a 5 ms grid, private ones anywhere.
          const bool shared = rng.uniform(4) != 0;
          const SimTime at =
              shared ? (now / 5000 + 1 + static_cast<SimTime>(rng.uniform(40))) *
                           5000
                     : now + static_cast<SimTime>(rng.uniform(200'000));
          const auto node = static_cast<wsn::NodeId>(rng.uniform(64));
          const auto generation = static_cast<std::uint64_t>(step);
          if (shared) {
            framed.push_frame_timer(at, node, 1, generation);
          } else {
            framed.push_timer(at, node, 2, generation);
          }
          plain.push_timer(at, node, shared ? 1 : 2, generation);
        } else {
          // One framed event, then the plain events it stands for.
          pop_expiries(framed, now, framed_stream);
          while (plain_stream.size() < framed_stream.size()) {
            pop_expiries(plain, plain_now, plain_stream);
          }
        }
      }
      EXPECT_TRUE(plain.empty());
      EXPECT_EQ(framed_stream, plain_stream);
      framed.reset_run();
      plain.reset_run();
    }
  }
}

TEST(FrameClockQueueTest, ClearReleasesGroups) {
  EventQueue queue;
  queue.push_frame_timer(10, 0, 1, 1);
  queue.push_frame_timer(10, 1, 1, 1);
  queue.push_frame_timer(20, 0, 1, 1);
  queue.clear();
  EXPECT_TRUE(queue.empty());
  // Nothing stays open across a clear: the next arm opens a fresh group.
  queue.push_frame_timer(10, 2, 1, 1);
  EXPECT_EQ(queue.size(), 1u);
  SimTime now = 0;
  std::vector<Expiry> expiries;
  pop_expiries(queue, now, expiries);
  EXPECT_EQ(expiries, (std::vector<Expiry>{{10, 2, 1, 1}}));
  EXPECT_TRUE(queue.empty());
}

// ---------------------------------------------------------------------------
// Cancelled-timer skip at pop (simulator-level: the generation table lives
// in the Simulator, the queue only transports the arming generation).
// ---------------------------------------------------------------------------

class CancelHalfProcess final : public Process {
 public:
  void on_start() override {
    set_timer(1, kSecond);
    set_timer(2, kSecond);
    cancel_timer(2);  // its queued expiry must be skipped at pop time
  }
  void on_timer(int timer_id) override { fired.push_back(timer_id); }
  void on_message(wsn::NodeId, const Message&) override {}

  std::vector<int> fired;
};

TEST(EventQueueSimulatorTest, CancelledTimerIsSkippedAtPopButStillPops) {
  const wsn::Topology line = wsn::make_line(2);
  Simulator simulator(line.graph, make_ideal_radio(), 1);
  simulator.add_process(0, std::make_unique<CancelHalfProcess>());
  simulator.add_process(1, std::make_unique<CancelHalfProcess>());
  simulator.run_until(10 * kSecond);
  for (wsn::NodeId n = 0; n < 2; ++n) {
    const auto& process =
        dynamic_cast<const CancelHalfProcess&>(simulator.process(n));
    EXPECT_EQ(process.fired, std::vector<int>{1});
  }
  // Both armed expiries popped (the cancelled one as a skipped no-op, so
  // event accounting is invariant under cancellation), but only the live
  // ones fired.
  EXPECT_EQ(simulator.events_executed(), 4u);
  EXPECT_EQ(simulator.timers_fired(), 2u);
}

}  // namespace
}  // namespace slpdas::sim
