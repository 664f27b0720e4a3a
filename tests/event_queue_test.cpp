// Tests for the deterministic typed event queue: time ordering plus FIFO
// tie-breaking across every event kind (the property that makes runs
// reproducible), one-event-per-broadcast staging/release, reset_run's
// release of every pending resource, the calendar's pop order against a
// test-local reference heap (including the far-horizon and
// descending-window shapes that are its worst cases), the frame clock,
// and the simulator-level cancelled-timer skip at pop time.
#include "slpdas/sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
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

TEST(EventQueueTest, StartsEmpty) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(queue.staged_message_count(), 0u);
}

/// Pops every event of a timer-only queue, returning the nodes of the
/// dispatched expiries in order.
std::vector<wsn::NodeId> drain_timer_nodes(EventQueue& queue, SimTime& now) {
  std::vector<Expiry> expiries;
  while (!queue.empty()) {
    pop_expiries(queue, now, expiries);
  }
  std::vector<wsn::NodeId> nodes;
  for (const Expiry& expiry : expiries) {
    nodes.push_back(std::get<1>(expiry));
  }
  return nodes;
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue queue;
  queue.push_timer(30, /*node=*/3, 1, 1);
  queue.push_timer(10, /*node=*/1, 1, 1);
  queue.push_timer(20, /*node=*/2, 1, 1);
  SimTime now = 0;
  EXPECT_EQ(drain_timer_nodes(queue, now),
            (std::vector<wsn::NodeId>{1, 2, 3}));
  EXPECT_EQ(now, 30);
}

TEST(EventQueueTest, EqualTimesFireInInsertionOrder) {
  EventQueue queue;
  std::vector<wsn::NodeId> pushed;
  for (wsn::NodeId node = 0; node < 50; ++node) {
    queue.push_timer(5, node, 1, 1);
    pushed.push_back(node);
  }
  SimTime now = 0;
  EXPECT_EQ(drain_timer_nodes(queue, now), pushed);
}

TEST(EventQueueTest, EqualTimesTieBreakAcrossKindsByInsertionOrder) {
  // A delivery, a timer and a frame-clock group pushed at one timestamp
  // pop in push order — the cross-kind FIFO guarantee the protocol stack
  // relies on (e.g. a reception and a period-boundary timer landing on
  // the same microsecond must not reorder between runs or refactors).
  EventQueue queue;
  queue.add_reception(
      queue.push_broadcast(7, /*from=*/0, std::make_shared<TestMessage>()), {1, 0});
  queue.push_timer(7, /*node=*/1, /*timer_id=*/4, /*generation=*/1);
  queue.push_frame_timer(7, /*node=*/0, /*timer_id=*/4, /*generation=*/1);
  queue.add_reception(
      queue.push_broadcast(7, /*from=*/3, std::make_shared<TestMessage>()), {2, 0});
  queue.push_timer(7, /*node=*/2, /*timer_id=*/4, /*generation=*/1);

  SimTime now = 0;
  const std::vector<EventKind> kinds = drain(queue, now);
  EXPECT_EQ(kinds,
            (std::vector<EventKind>{EventKind::kDelivery, EventKind::kTimer,
                                    EventKind::kTimerGroup,
                                    EventKind::kDelivery, EventKind::kTimer}));
  EXPECT_EQ(now, 7);
  EXPECT_EQ(queue.staged_message_count(), 0u);
}

TEST(EventQueueTest, BroadcastIsOneEventListingItsReceivers) {
  EventQueue queue;
  auto message = std::make_shared<TestMessage>();
  const std::uint32_t slot = queue.push_broadcast(1, /*from=*/9, message);
  queue.add_reception(slot, {3, 5});
  queue.add_reception(slot, {1, 0});
  queue.add_reception(slot, {2, 7});
  // One reference in the slot table plus the test's own handle, and one
  // queued event for all three receptions.
  EXPECT_EQ(message.use_count(), 2);
  EXPECT_EQ(queue.staged_message_count(), 1u);
  EXPECT_EQ(queue.size(), 1u);

  SimTime now = 0;
  const Event event = queue.pop(now);
  ASSERT_EQ(event.kind(), EventKind::kDelivery);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(event.delivery.from, 9);
  EXPECT_EQ(event.delivery.message_slot, slot);
  EXPECT_EQ(&queue.message(slot), message.get());
  std::vector<wsn::NodeId> receivers;
  std::vector<std::uint32_t> links;
  for (std::size_t i = 0; i < queue.reception_count(slot); ++i) {
    receivers.push_back(queue.reception(slot, i).to);
    links.push_back(queue.reception(slot, i).link);
  }
  EXPECT_EQ(receivers, (std::vector<wsn::NodeId>{3, 1, 2}));  // append order
  EXPECT_EQ(links, (std::vector<std::uint32_t>{5, 0, 7}));  // beside each
  queue.release_message(slot);
  EXPECT_EQ(queue.staged_message_count(), 0u);
  EXPECT_EQ(message.use_count(), 1);
}

TEST(EventQueueTest, ReleasedSlotsAreRecycledEmpty) {
  EventQueue queue;
  SimTime now = 0;
  const std::uint32_t first =
      queue.push_broadcast(1, 0, std::make_shared<TestMessage>());
  queue.add_reception(first, {1, 0});
  queue.add_reception(first, {2, 0});
  // A second broadcast in flight takes its own slot.
  const std::uint32_t second =
      queue.push_broadcast(1, 1, std::make_shared<TestMessage>());
  queue.add_reception(second, {0, 0});
  EXPECT_NE(first, second);
  EXPECT_EQ(queue.staged_message_count(), 2u);
  queue.release_message(queue.pop(now).delivery.message_slot);
  // The freed slot is handed out again, with no receivers left over from
  // the broadcast it carried before.
  auto message = std::make_shared<TestMessage>();
  EXPECT_EQ(queue.push_broadcast(2, 2, message), first);
  EXPECT_EQ(queue.reception_count(first), 0u);
  EXPECT_EQ(&queue.message(first), message.get());
  EXPECT_EQ(queue.reception_count(second), 1u);
  drain(queue, now);
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
  queue.push_timer(10, /*node=*/1, 1, 1);
  SimTime now = 0;
  EXPECT_EQ(queue.pop(now).timer.node, 1);
  queue.push_timer(5, /*node=*/2, 1, 1);   // earlier absolute time,
  queue.push_timer(20, /*node=*/3, 1, 1);  // pushed later
  EXPECT_EQ(drain_timer_nodes(queue, now), (std::vector<wsn::NodeId>{2, 3}));
}

TEST(EventQueueTest, ResetRunReleasesStagedPayloadsAndRecyclesSlots) {
  EventQueue queue;
  auto message = std::make_shared<TestMessage>();
  for (int i = 0; i < 3; ++i) {
    const std::uint32_t slot = queue.push_broadcast(10 + i, 0, message);
    queue.add_reception(slot, {1, 0});
    queue.add_reception(slot, {2, 0});
  }
  // A broadcast beyond the calendar's span (the far overflow list), a
  // plain timer and two open frame-clock groups.
  auto far = std::make_shared<TestMessage>();
  queue.add_reception(queue.push_broadcast(100 * kSecond, 0, far), {1, 0});
  queue.push_timer(4, 0, 1, 1);
  queue.push_frame_timer(20, 0, 1, 1);
  queue.push_frame_timer(20, 1, 1, 1);
  queue.push_frame_timer(30, 0, 1, 1);
  EXPECT_EQ(message.use_count(), 4);
  EXPECT_EQ(far.use_count(), 2);

  queue.reset_run();
  EXPECT_TRUE(queue.empty());
  // The staged payloads were all released: nothing but the test's own
  // handles survive.
  EXPECT_EQ(queue.staged_message_count(), 0u);
  EXPECT_EQ(message.use_count(), 1);
  EXPECT_EQ(far.use_count(), 1);
  // No group stays open across the reset: the next arm for an instant
  // that had one opens a fresh group.
  queue.push_frame_timer(20, 2, 1, 1);
  EXPECT_EQ(queue.size(), 1u);
  SimTime now = 0;
  std::vector<Expiry> expiries;
  pop_expiries(queue, now, expiries);
  EXPECT_EQ(expiries, (std::vector<Expiry>{{20, 2, 1, 1}}));
  EXPECT_TRUE(queue.empty());
  // Nor does the dropped far broadcast resurface when the calendar next
  // re-anchors on the far overflow.
  queue.push_timer(200 * kSecond, 3, 1, 1);
  EXPECT_EQ(queue.pop(now).at, 200 * kSecond);
  EXPECT_TRUE(queue.empty());
  // Slots are handed out lowest first again, each without receivers.
  for (std::uint32_t expected = 0; expected < 3; ++expected) {
    const std::uint32_t slot = queue.push_broadcast(5, 0, message);
    EXPECT_EQ(slot, expected);
    EXPECT_EQ(queue.reception_count(slot), 0u);
  }
  queue.reset_run();
  EXPECT_EQ(message.use_count(), 1);
}

TEST(EventQueueTest, RejectsNullMessage) {
  EventQueue queue;
  EXPECT_THROW((void)queue.push_broadcast(1, 0, nullptr), std::invalid_argument);
  EXPECT_TRUE(queue.empty());
}

// ---------------------------------------------------------------------------
// Calendar pop order against a test-local reference, including the shapes
// that are the calendar's worst cases.
// ---------------------------------------------------------------------------

using Key = std::pair<SimTime, std::uint64_t>;

/// The reference order: a binary heap over (timestamp, insertion
/// sequence), each entry carrying the expiry it stands for. Keys are
/// unique, so this is the one order the calendar must reproduce.
class ReferenceQueue {
 public:
  using Entry = std::pair<Key, Expiry>;

  void push(SimTime at, const Expiry& expiry = {}) {
    pending_.emplace(Key{at, next_sequence_++}, expiry);
  }
  [[nodiscard]] bool empty() const { return pending_.empty(); }
  Entry pop() {
    Entry top = pending_.top();
    pending_.pop();
    return top;
  }

 private:
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pending_;
  std::uint64_t next_sequence_ = 0;
};

/// Pops every event of a timer-only queue, recording (timestamp, sequence).
std::vector<Key> drain_keys(EventQueue& queue) {
  std::vector<Key> keys;
  SimTime now = 0;
  while (!queue.empty()) {
    const Event event = queue.pop(now);
    keys.emplace_back(event.at, event.sequence());
  }
  return keys;
}

std::vector<Key> drain_keys(ReferenceQueue& reference) {
  std::vector<Key> keys;
  while (!reference.empty()) {
    keys.push_back(reference.pop().first);
  }
  return keys;
}

TEST(CalendarOrderTest, MatchesReferenceOnMixedHorizonWorkload) {
  // A randomised push/pop interleaving — propagation-scale pushes,
  // dissemination bursts, far-horizon tails, duplicate timestamps — must
  // pop in the reference (timestamp, sequence) order. Sequence numbers
  // advance identically on every push flavour, so an equal key stream
  // means a bit-identical simulation.
  EventQueue calendar;
  ReferenceQueue reference;
  Rng rng(2024);
  SimTime now = 0;
  std::vector<Key> calendar_keys;
  std::vector<Key> reference_keys;
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
      reference.push(now + delay);
    } else {
      const Event popped = calendar.pop(now);
      calendar_keys.emplace_back(popped.at, popped.sequence());
      reference_keys.push_back(reference.pop().first);
    }
  }
  const auto calendar_tail = drain_keys(calendar);
  const auto reference_tail = drain_keys(reference);
  calendar_keys.insert(calendar_keys.end(), calendar_tail.begin(),
                       calendar_tail.end());
  reference_keys.insert(reference_keys.end(), reference_tail.begin(),
                        reference_tail.end());
  ASSERT_EQ(calendar_keys.size(), reference_keys.size());
  EXPECT_EQ(calendar_keys, reference_keys);
}

TEST(CalendarOrderTest, MatchesReferenceOnPathologicalFarHorizon) {
  // Thousands of events, each a calendar revolution apart: every refill
  // re-anchors and re-partitions the whole far overflow to surface ONE
  // event. Quadratic, but the order must hold.
  constexpr int kEvents = 4000;
  constexpr SimTime kStride =
      (static_cast<SimTime>(EventQueue::kNumBuckets) + 7)
      << EventQueue::kBucketShift;
  EventQueue calendar;
  ReferenceQueue reference;
  for (int i = 0; i < kEvents; ++i) {
    // Ascending, so all but the anchor land in the far overflow and every
    // pop's refill re-partitions the remaining far events.
    const SimTime at = static_cast<SimTime>(i + 1) * kStride;
    calendar.push_timer(at, 0, 1, 0);
    reference.push(at);
  }
  EXPECT_EQ(drain_keys(calendar), drain_keys(reference));
}

TEST(CalendarOrderTest, MatchesReferenceOnDescendingPushesInOneBucket) {
  // Descending timestamps inside one bucket: every push inserts at the
  // window's front, shifting the whole tail. Quadratic, but the order
  // must hold.
  constexpr int kEvents = 3000;
  EventQueue calendar;
  ReferenceQueue reference;
  for (int i = 0; i < kEvents; ++i) {
    const SimTime at = static_cast<SimTime>(kEvents - i);
    calendar.push_timer(at, 0, 1, 0);
    reference.push(at);
  }
  EXPECT_EQ(drain_keys(calendar), drain_keys(reference));
}

TEST(CalendarOrderTest, FarFirstPushDoesNotPullTheWindowAhead) {
  // The frame clock drains the queue at every period boundary, and the
  // first thing armed next is the following boundary, a whole period
  // ahead. The sorted window must stay on `now`: were it anchored on that
  // far event, every later push for the period in between would be a
  // quadratic front insert into the window.
  constexpr int kEvents = 3000;
  EventQueue calendar;
  ReferenceQueue reference;
  calendar.push_timer(5'000'000, 0, 1, 0);
  reference.push(5'000'000);
  for (int i = 0; i < kEvents; ++i) {
    const SimTime at = 4'000'000 - static_cast<SimTime>(i) * 1000;
    calendar.push_timer(at, 0, 2, 0);
    reference.push(at);
  }
  EXPECT_EQ(drain_keys(calendar), drain_keys(reference));
}

TEST(CalendarOrderTest, ReserveKeepsOrderAndSize) {
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
  queue.push_frame_timer(50, 0, 1, 1);
  queue.push_frame_timer(60, 9, 1, 1);  // another instant: no effect on 50
  queue.push_frame_timer(50, 1, 1, 1);
  queue.add_reception(
      queue.push_broadcast(50, 2, std::make_shared<TestMessage>()), {3, 0});
  queue.push_frame_timer(50, 2, 1, 1);
  queue.push_timer(50, 3, 1, 1);
  queue.push_frame_timer(50, 3, 2, 1);
  queue.push_timer(50, 4, 2, 1);
  queue.push_frame_timer(50, 4, 1, 1);
  SimTime now = 0;
  EXPECT_EQ(drain(queue, now),
            (std::vector<EventKind>{
                EventKind::kTimerGroup, EventKind::kDelivery,
                EventKind::kTimerGroup, EventKind::kTimer,
                EventKind::kTimerGroup, EventKind::kTimer,
                EventKind::kTimerGroup, EventKind::kTimerGroup}));
  EXPECT_EQ(queue.staged_message_count(), 0u);
}

TEST(FrameClockQueueTest, FlattenedOrderEqualsPlainTimers) {
  // A randomised push/pop interleaving against the reference fed the same
  // arms as plain timers: the flattened expiry streams must be equal,
  // also across a reset_run.
  EventQueue framed;
  for (int pass = 0; pass < 2; ++pass) {
    ReferenceQueue plain;
    Rng rng(77 + static_cast<std::uint64_t>(pass));
    SimTime now = 0;
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
        plain.push(at, Expiry{at, node, shared ? 1 : 2, generation});
      } else {
        // One framed event, then the plain expiries it stands for.
        pop_expiries(framed, now, framed_stream);
        while (plain_stream.size() < framed_stream.size()) {
          plain_stream.push_back(plain.pop().second);
        }
      }
    }
    EXPECT_TRUE(plain.empty());
    EXPECT_EQ(framed_stream, plain_stream);
    framed.reset_run();
  }
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
