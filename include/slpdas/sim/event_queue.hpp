// Deterministic, typed discrete-event queue.
//
// Events at equal timestamps fire in insertion order (a monotonically
// increasing sequence number breaks ties), so a run is a pure function of
// the seed and configuration — the property TOSSIM does not give and the
// main reason we built our own simulator (DESIGN.md section 2).
//
// Events are a tagged value type rather than std::function closures, so
// the hot path — message delivery and timer expiry, millions of events
// per experiment — executes with zero per-event heap allocation:
//
//   * Delivery{from, to, message_slot}: one broadcast stages its shared
//     Message once in a slot table and pushes one POD entry per receiver;
//     the slot's reference count frees the payload after the last
//     delivery executes (so a broadcast costs one shared_ptr copy total,
//     not one per receiver).
//   * Timer{node, timer_id, generation}: armed timers carry the arming
//     generation; the simulator compares it against its dense per-node
//     generation table at pop time, so cancelling or re-arming a timer
//     never allocates and a stale expiry is skipped for free.
//   * Control{callback_slot}: the rare arbitrary-callback case
//     (Simulator::call_at) keeps the old std::function flexibility; the
//     callable lives in a slot table beside the queue.
//   * TimerGroup{group_slot}: the frame clock. Protocols arm most timers
//     at instants the whole network shares (TDMA period boundaries, the
//     dissemination window's end, data slots), so N nodes would push N
//     timer events for one instant. push_frame_timer instead appends the
//     expiry to the group already queued for that instant, and the group
//     pops once and fires its members in arming order. A group stays
//     open for appends only until anything else is pushed for its
//     instant; then the next frame timer starts a new group. Members are
//     therefore always consecutive in the (timestamp, sequence) order
//     individual timer events would have had, so the dispatch order —
//     and every result — is exactly the per-node timers' order.
//
// Ordering structure: a two-level calendar queue instead of the previous
// 4-ary heap. The simulator's event mix is dominated by short horizons
// (propagation delay ~1 ms, slot period 50 ms), so events are binned by
// time into fixed-width buckets (kBucketWidth = 4096 µs, one arithmetic
// shift) and only the bucket currently being drained is kept sorted:
//
//   * `near_` — every pending event whose bucket is <= the active bucket,
//     kept sorted ascending by (timestamp, sequence); pops read the next
//     entry through a consumed-prefix cursor, O(1). A push whose
//     timestamp lands at or past the end of `near_` (the overwhelmingly
//     common case: arrival = now + propagation delay) appends in O(1);
//     anything earlier binary-searches its slot and shifts the tail
//     (trivially-copyable 32-byte moves).
//   * `buckets_` — a power-of-two circular array of kNumBuckets unsorted
//     bins covering the next kNumBuckets * kBucketWidth ≈ 4.2 s of
//     simulated time past the active bucket; push is an O(1) append plus
//     one occupancy-bitmap bit. When `near_` drains, the bitmap is
//     scanned (16 words) for the next occupied bin, which is copied into
//     `near_` and sorted once — O(k log k) amortised over its k events.
//   * `far_` — the unsorted overflow for events beyond the bucket
//     horizon (source periods, attacker activation). When the calendar
//     runs dry the earliest far bucket becomes the new active window and
//     `far_` is re-partitioned in one pass; a far event is rescanned at
//     most once per calendar revolution (~4 s of simulated time),
//     amortised O(1) for every horizon the protocols use.
//
// Pop order is identical to the heap's: keys (timestamp, sequence) are
// unique and both structures emit them in strictly ascending key order,
// so golden document fingerprints do not move. For pathological
// workloads — horizons so sparse that far_ rescans dominate the real
// work — the queue detects the wasted motion (scanned-to-pushed ratio)
// and irreversibly migrates the pending set onto the old 4-ary heap,
// which is O(log n) regardless of horizon. The trigger depends only on
// the pushed timestamps, never on wall clock, so a run that degrades
// does so identically on every machine. Tests and benchmarks can force
// either backend at construction.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "slpdas/sim/message.hpp"
#include "slpdas/sim/time.hpp"
#include "slpdas/wsn/graph.hpp"

namespace slpdas::sim {

enum class EventKind : std::uint8_t { kDelivery, kTimer, kControl, kTimerGroup };

/// One radio reception: `to` receives the broadcast `from` sent. The
/// shared payload lives in the queue's message slot table.
struct DeliveryEvent {
  wsn::NodeId from;
  wsn::NodeId to;
  std::uint32_t message_slot;
};

/// One armed timer expiry. Fires only if the owner's generation for this
/// timer id still equals `generation` when the event pops (the Simulator
/// performs that check); re-arming or cancelling bumps the generation and
/// thereby invalidates every pending expiry.
struct TimerEvent {
  wsn::NodeId node;
  std::int32_t timer_id;
  std::uint64_t generation;
};

/// One scheduled arbitrary callback (harness phase changes and the like).
struct ControlEvent {
  std::uint32_t callback_slot;
};

/// The frame-clock expiries of one instant; members live in the queue's
/// member pool (see EventQueue::push_frame_timer).
struct TimerGroupEvent {
  std::uint32_t group_slot;
};

/// A queued event. Trivially copyable by design: bucket refills and tail
/// shifts are memcpy-grade moves, and pop hands the entry back by value.
/// The sequence number and kind tag share one word (kind in the low two
/// bits), so the tie-break comparison is a single integer compare and the
/// whole entry is 32 bytes.
struct Event {
  SimTime at = 0;
  std::uint64_t seq_kind = 0;  ///< (insertion sequence << 2) | kind
  union {
    DeliveryEvent delivery;
    TimerEvent timer;
    ControlEvent control;
    TimerGroupEvent group;
  };

  [[nodiscard]] EventKind kind() const noexcept {
    return static_cast<EventKind>(seq_kind & 3u);
  }
  [[nodiscard]] std::uint64_t sequence() const noexcept {
    return seq_kind >> 2;
  }
};

class EventQueue {
 public:
  using Action = std::function<void()>;

  /// Ordering backend. kCalendar is the default and self-degrades to
  /// kHeap when its amortisation assumptions break; kHeap can be forced
  /// at construction for tests and A/B benchmarks.
  enum class Backend : std::uint8_t { kCalendar, kHeap };

  /// "No slot" sentinel for the message/control slot tables.
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// log2 of the bucket width in SimTime ticks (microseconds): 4096 µs.
  /// A few propagation delays wide, so a broadcast's receptions usually
  /// land in the active bucket (an O(1) append at the sorted window's
  /// tail) and window refills stay rare; measured fastest on perf_sim
  /// against 1024/2048/8192/16384 µs alternatives.
  static constexpr int kBucketShift = 12;
  /// Number of calendar bins (power of two); the calendar spans
  /// kNumBuckets << kBucketShift ≈ 4.2 s past the active bucket.
  static constexpr std::size_t kNumBuckets = 1024;

  explicit EventQueue(Backend backend = Backend::kCalendar)
      : backend_(backend), initial_backend_(backend) {}

  /// The ordering structure currently in use (observability: tests assert
  /// the pathological-workload degradation fires).
  [[nodiscard]] Backend backend() const noexcept { return backend_; }

  /// Pre-sizes internal storage for a simulation expected to keep up to
  /// `pending_events` events in flight with up to `staged_messages`
  /// concurrently staged broadcast payloads, so steady-state operation
  /// reaches its high-water capacity up front instead of reallocating
  /// mid-run. Callable any time; never shrinks.
  void reserve(std::size_t pending_events, std::size_t staged_messages) {
    if (backend_ == Backend::kHeap) {
      heap_.reserve(pending_events);
    } else {
      near_.reserve(pending_events);
      far_.reserve(pending_events);
      // Every bin gets a floor capacity: the periodic-timer trickle that
      // cycles through all bins each calendar revolution then never
      // triggers a first-touch allocation. Burst bins (whole-network
      // slot broadcasts) grow once to their own high water and stay.
      const std::size_t per_bucket =
          std::max<std::size_t>(8, pending_events / 64);
      for (auto& bucket : buckets_) {
        bucket.reserve(per_bucket);
      }
    }
    messages_.reserve(staged_messages);
    free_messages_.reserve(staged_messages);
  }

  // -- staging shared payloads ----------------------------------------------

  /// Stages a broadcast payload in the slot table with zero references and
  /// returns its slot. Each push_delivery for the slot adds a reference;
  /// each release_message drops one, and the last drop frees the slot. A
  /// staged slot with no deliveries pushed stays live until clear() frees
  /// it — callers avoid even that by staging lazily, on the first
  /// delivered receiver.
  [[nodiscard]] std::uint32_t stage_message(MessagePtr message) {
    if (!message) {
      throw std::invalid_argument("EventQueue::stage_message: null message");
    }
    std::uint32_t slot;
    if (free_messages_.empty()) {
      slot = static_cast<std::uint32_t>(messages_.size());
      messages_.emplace_back();
    } else {
      slot = free_messages_.back();
      free_messages_.pop_back();
    }
    messages_[slot].message = std::move(message);
    messages_[slot].references = 0;
    return slot;
  }

  /// The staged payload of `slot`. The reference stays valid across queue
  /// mutations (the Message object itself never moves), for the duration
  /// of the delivery being executed.
  [[nodiscard]] const Message& message(std::uint32_t slot) const {
    return *messages_[slot].message;
  }

  /// Drops one reference from `slot`; the last drop releases the payload
  /// and recycles the slot. Call once per popped delivery, after the
  /// receiver ran.
  void release_message(std::uint32_t slot) {
    MessageSlot& staged = messages_[slot];
    if (--staged.references == 0) {
      staged.message.reset();
      free_messages_.push_back(slot);
    }
  }

  /// Number of staged messages still referenced by queued or in-flight
  /// deliveries (observability for tests).
  [[nodiscard]] std::size_t staged_message_count() const noexcept {
    return messages_.size() - free_messages_.size();
  }

  // -- pushing --------------------------------------------------------------

  /// Enqueues one reception of the payload staged in `message_slot`.
  /// `at` may equal the current head time but must never be in the past
  /// relative to the last popped event; the Simulator enforces that
  /// invariant (here and for the other push flavours).
  void push_delivery(SimTime at, wsn::NodeId from, wsn::NodeId to,
                     std::uint32_t message_slot) {
    ++messages_[message_slot].references;
    Event event;
    event.at = at;
    event.seq_kind = next_seq_kind(EventKind::kDelivery);
    event.delivery = DeliveryEvent{from, to, message_slot};
    push_event(event);
  }

  /// Enqueues a timer expiry carrying its arming generation.
  void push_timer(SimTime at, wsn::NodeId node, std::int32_t timer_id,
                  std::uint64_t generation) {
    Event event;
    event.at = at;
    event.seq_kind = next_seq_kind(EventKind::kTimer);
    event.timer = TimerEvent{node, timer_id, generation};
    push_event(event);
  }

  /// Enqueues an arbitrary callback. The one push flavour that may
  /// allocate (the callable's closure) — deliberately kept off the
  /// delivery/timer hot path.
  void push_control(SimTime at, Action action) {
    if (!action) {
      throw std::invalid_argument("EventQueue::push_control: null action");
    }
    std::uint32_t slot;
    if (free_controls_.empty()) {
      slot = static_cast<std::uint32_t>(controls_.size());
      controls_.emplace_back();
    } else {
      slot = free_controls_.back();
      free_controls_.pop_back();
    }
    controls_[slot] = std::move(action);
    Event event;
    event.at = at;
    event.seq_kind = next_seq_kind(EventKind::kControl);
    event.control = ControlEvent{slot};
    push_event(event);
  }

  /// Moves the callback of a popped Control event out of its slot and
  /// recycles the slot.
  [[nodiscard]] Action take_control(std::uint32_t slot) {
    Action action = std::move(controls_[slot]);
    controls_[slot] = nullptr;
    free_controls_.push_back(slot);
    return action;
  }

  /// Enqueues a timer expiry on the frame clock: appended to the group
  /// already queued for `at` if that group is still open, else queued as
  /// the first member of a new TimerGroup event. Either way the expiry
  /// pops exactly where a push_timer of the same arguments would have.
  void push_frame_timer(SimTime at, wsn::NodeId node, std::int32_t timer_id,
                        std::uint64_t generation) {
    OpenGroup& open = open_groups_[open_index(at)];
    if (open.at != at) {
      std::uint32_t slot = free_group_;
      if (slot == kNoSlot) {
        slot = static_cast<std::uint32_t>(groups_.size());
        groups_.emplace_back();
      } else {
        free_group_ = groups_[slot].head;
      }
      groups_[slot] = TimerGroup{kNoSlot, kNoSlot};
      Event event;
      event.at = at;
      event.seq_kind = next_seq_kind(EventKind::kTimerGroup);
      event.group = TimerGroupEvent{slot};
      push_event(event);
      open = OpenGroup{at, slot};  // evicts (closes) a colliding instant
    }
    std::uint32_t member = free_member_;
    if (member == kNoSlot) {
      member = static_cast<std::uint32_t>(members_.size());
      members_.emplace_back();
    } else {
      free_member_ = members_[member].next;
    }
    members_[member] = GroupMember{TimerEvent{node, timer_id, generation}, kNoSlot};
    TimerGroup& group = groups_[open.slot];
    if (group.tail == kNoSlot) {
      group.head = member;
    } else {
      members_[group.tail].next = member;
    }
    group.tail = member;
  }

  /// Starts dispatching a popped TimerGroup event: closes the group to
  /// further appends, recycles its slot and returns a cursor on its first
  /// member for next_member.
  [[nodiscard]] std::uint32_t take_group(const Event& event) {
    const std::uint32_t slot = event.group.group_slot;
    OpenGroup& open = open_groups_[open_index(event.at)];
    if (open.at == event.at && open.slot == slot) {
      open.at = kClosed;
    }
    const std::uint32_t head = groups_[slot].head;
    groups_[slot].head = free_group_;
    free_group_ = slot;
    return head;
  }

  /// The member under `cursor` (kNoSlot once the group is exhausted);
  /// advances the cursor and recycles the member, so handlers may arm new
  /// frame timers while a group is being dispatched.
  [[nodiscard]] TimerEvent next_member(std::uint32_t& cursor) {
    GroupMember& member = members_[cursor];
    const TimerEvent timer = member.timer;
    const std::uint32_t next = member.next;
    member.next = free_member_;
    free_member_ = cursor;
    cursor = next;
    return timer;
  }

  // -- popping --------------------------------------------------------------

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Timestamp of the next event; undefined when empty. Amortised O(1) on
  /// both backends (the calendar refills its sorted window here when the
  /// last pop drained it).
  [[nodiscard]] SimTime next_time() {
    materialise_head();
    return backend_ == Backend::kCalendar ? near_[near_pos_].at
                                          : heap_.front().at;
  }

  /// Removes and returns the next event by value, advancing `now` to its
  /// timestamp. Delivery events still hold their message reference (the
  /// caller releases it after dispatch); Control events still own their
  /// callback slot (the caller takes it).
  [[nodiscard]] Event pop(SimTime& now) {
    materialise_head();
    --size_;
    if (backend_ == Backend::kCalendar) {
      const Event top = near_[near_pos_++];
      now = top.at;
      return top;
    }
    return pop_heap_event(now);
  }

  /// Drops every pending event and releases the resources they hold:
  /// message references (freeing payloads whose last reference was
  /// queued), staged-but-never-pushed payloads, and control callbacks.
  /// Slots of deliveries popped but not yet released stay live — they
  /// belong to the caller until release_message.
  void clear() {
    for (std::size_t i = near_pos_; i < near_.size(); ++i) {
      release_event_resources(near_[i]);
    }
    for (auto& bucket : buckets_) {
      for (const Event& event : bucket) {
        release_event_resources(event);
      }
      bucket.clear();
    }
    for (const Event& event : far_) {
      release_event_resources(event);
    }
    for (const Event& event : heap_) {
      release_event_resources(event);
    }
    for (std::uint32_t slot = 0; slot < messages_.size(); ++slot) {
      MessageSlot& staged = messages_[slot];
      if (staged.message && staged.references == 0) {
        // Staged but never pushed (e.g. a caller that cleared between
        // staging and the first push_delivery): free it here so clear()
        // leaves no payload behind.
        staged.message.reset();
        free_messages_.push_back(slot);
      }
    }
    near_.clear();
    near_.shrink_to_fit();
    near_pos_ = 0;
    far_.clear();
    far_.shrink_to_fit();
    occupancy_.fill(0);
    heap_.clear();
    heap_.shrink_to_fit();
    open_groups_.fill(OpenGroup{});
    size_ = 0;
  }

  /// Rewinds the queue to its just-constructed state while RETAINING every
  /// capacity a previous run grew (calendar bins, the sorted window, the
  /// payload slot tables): pending events are dropped and their resources
  /// released exactly as in clear(), but nothing is shrunk, so the next
  /// run reaches its steady state with zero allocations. The sequence
  /// counter, the calendar anchor and the degradation accounting all
  /// restart from zero, and the backend reverts to the one selected at
  /// construction — a degrade-to-heap verdict belongs to one run's
  /// timestamp distribution, never to the next seed. This is what makes a
  /// forked run bit-identical to a cold-constructed one.
  void reset_run() {
    for (std::size_t i = near_pos_; i < near_.size(); ++i) {
      release_event_resources(near_[i]);
    }
    for (auto& bucket : buckets_) {
      for (const Event& event : bucket) {
        release_event_resources(event);
      }
      bucket.clear();
    }
    for (const Event& event : far_) {
      release_event_resources(event);
    }
    for (const Event& event : heap_) {
      release_event_resources(event);
    }
    for (MessageSlot& staged : messages_) {
      // Any payload still staged (including popped-but-unreleased slots —
      // there are none between runs) must not leak into the next seed.
      staged.message.reset();
      staged.references = 0;
    }
    messages_.clear();
    free_messages_.clear();
    controls_.clear();
    free_controls_.clear();
    members_.clear();
    free_member_ = kNoSlot;
    groups_.clear();
    free_group_ = kNoSlot;
    open_groups_.fill(OpenGroup{});
    near_.clear();
    near_pos_ = 0;
    far_.clear();
    heap_.clear();
    occupancy_.fill(0);
    size_ = 0;
    next_sequence_ = 0;
    total_pushed_ = 0;
    far_scanned_ = 0;
    near_shifted_ = 0;
    active_bucket_ = 0;
    far_boundary_ = static_cast<std::int64_t>(kNumBuckets);
    backend_ = initial_backend_;
  }

 private:
  struct MessageSlot {
    MessagePtr message;
    std::uint32_t references = 0;
  };

  /// One frame-clock expiry, singly linked to the next member of its
  /// group (or, while recycled, to the next free member).
  struct GroupMember {
    TimerEvent timer;
    std::uint32_t next;
  };

  /// A queued group's member list; `head` links free slots while recycled.
  struct TimerGroup {
    std::uint32_t head;
    std::uint32_t tail;
  };

  /// The group still accepting appends for instant `at` (kClosed: none).
  struct OpenGroup {
    SimTime at = kClosed;
    std::uint32_t slot = kNoSlot;
  };

  static constexpr SimTime kClosed = -1;
  /// Open groups are tracked in a direct-mapped table keyed by instant. A
  /// collision closes the older group early, which only costs one more
  /// TimerGroup event later; 256 entries cover a frame's period, window
  /// and data-slot instants with few collisions.
  static constexpr int kOpenGroupBits = 8;

  [[nodiscard]] static std::size_t open_index(SimTime at) noexcept {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(at) * 0x9e3779b97f4a7c15ULL) >>
        (64 - kOpenGroupBits));
  }

  static constexpr std::size_t kBucketMask = kNumBuckets - 1;
  static_assert((kNumBuckets & kBucketMask) == 0, "power of two");
  static_assert(kNumBuckets % 64 == 0, "bitmap words cover whole buckets");

  /// Total priority of an event as one 128-bit integer: timestamp in the
  /// high word (timestamps are never negative), insertion sequence in the
  /// low word. One branchless compare instead of a two-level branch —
  /// the comparison loops run on data-dependent values, so avoiding the
  /// mispredictions is worth more than the wide arithmetic costs.
  [[nodiscard]] static unsigned __int128 priority(const Event& event) noexcept {
    return (static_cast<unsigned __int128>(static_cast<std::uint64_t>(event.at))
            << 64) |
           event.seq_kind;
  }

  /// True when `a` fires after `b`. Sequence numbers increase with every
  /// push, so the packed seq_kind word compares like the bare sequence.
  [[nodiscard]] static bool later(const Event& a, const Event& b) noexcept {
    return priority(a) > priority(b);
  }

  [[nodiscard]] std::uint64_t next_seq_kind(EventKind kind) noexcept {
    return (next_sequence_++ << 2) | static_cast<std::uint64_t>(kind);
  }

  [[nodiscard]] static std::int64_t bucket_of(SimTime at) noexcept {
    return static_cast<std::int64_t>(at) >> kBucketShift;
  }

  void release_event_resources(const Event& event) {
    switch (event.kind()) {
      case EventKind::kDelivery:
        release_message(event.delivery.message_slot);
        break;
      case EventKind::kControl:
        (void)take_control(event.control.callback_slot);
        break;
      case EventKind::kTimer:
        break;
      case EventKind::kTimerGroup: {
        std::uint32_t cursor = take_group(event);
        while (cursor != kNoSlot) {
          (void)next_member(cursor);
        }
        break;
      }
    }
  }

  /// Routes one new event into whichever level owns its timestamp.
  void push_event(const Event& event) {
    // Anything pushed for an instant closes that instant's open group: a
    // frame timer armed after this event must also pop after it.
    OpenGroup& open = open_groups_[open_index(event.at)];
    if (open.at == event.at) {
      open.at = kClosed;
    }
    ++size_;
    ++total_pushed_;
    if (backend_ == Backend::kHeap) {
      push_heap_event(event);
      return;
    }
    const std::int64_t bucket = bucket_of(event.at);
    if (near_pos_ == near_.size()) {
      // Drained but not yet refilled: restart the window. A push for the
      // very next bucket, when that bin is empty, moves the window onto
      // it — a slot's receptions that spill past the slot's bucket then
      // append here instead of filling a bin. Only one bucket ahead: a
      // window moved further would put every later push for the buckets
      // in between in front of it (an insert, not an append).
      near_.clear();
      near_pos_ = 0;
      if (bucket == active_bucket_ + 1 && bucket < far_boundary_) {
        const auto slot = static_cast<std::size_t>(bucket) & kBucketMask;
        if (((occupancy_[slot >> 6] >> (slot & 63)) & 1u) == 0) {
          active_bucket_ = bucket;
        }
      }
    }
    if (bucket <= active_bucket_) {
      // Lands inside the sorted window. The usual case is a timestamp at
      // or past everything pending (arrival = now + delay): an O(1)
      // append.
      if (near_.empty() || priority(event) >= priority(near_.back())) {
        near_.push_back(event);
      } else {
        insert_near(event);
      }
      return;
    }
    if (bucket < far_boundary_) {
      const auto slot = static_cast<std::size_t>(bucket) & kBucketMask;
      buckets_[slot].push_back(event);
      occupancy_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
      return;
    }
    far_.push_back(event);
  }

  /// The sorted window's out-of-order insert, kept out of line so the
  /// append paths of push_event stay small enough to inline into every
  /// push (the broadcast loop pushes one delivery per receiver).
  [[gnu::noinline]] void insert_near(const Event& event) {
    const unsigned __int128 key = priority(event);
    const auto insert_at = std::upper_bound(
        near_.begin() + static_cast<std::ptrdiff_t>(near_pos_), near_.end(),
        key, [](unsigned __int128 lhs, const Event& rhs) {
          return lhs < priority(rhs);
        });
    // The tail past the insertion point shifts one slot. Shifts are
    // contiguous 32-byte moves — hundreds of them cost less than one
    // pointer-chasing heap sift — but when the window is so overcrowded
    // that each insert moves thousands of events (occupancies far beyond
    // any simulated topology), a log-time heap is strictly better. Same
    // deterministic degradation rule as far_scanned_: a pure function of
    // the pushed timestamps.
    near_shifted_ += static_cast<std::size_t>(near_.end() - insert_at);
    near_.insert(insert_at, event);
    if (near_shifted_ > 256 * total_pushed_ + 4096) {
      degrade_to_heap();
    }
  }

  /// Refills a drained sorted window before the head is read. Lazily, not
  /// at the pop that drained it: the handler of that last event still
  /// pushes near `now`, and with the window left on `now`'s bucket those
  /// pushes append instead of being inserted in front of a bin that a
  /// refill pulled in from further ahead.
  void materialise_head() {
    if (backend_ == Backend::kCalendar && near_pos_ == near_.size()) {
      refill();
    }
  }

  /// Re-establishes the sorted window after it drains: advance to the
  /// next occupied bin, or re-anchor the calendar on the earliest far
  /// event when a whole revolution is empty.
  void refill() {
    near_.clear();
    near_pos_ = 0;
    const std::int64_t next = find_next_occupied();
    if (next >= 0) {
      active_bucket_ = next;
      const auto slot = static_cast<std::size_t>(next) & kBucketMask;
      auto& bucket = buckets_[slot];
      near_.assign(bucket.begin(), bucket.end());
      bucket.clear();  // keeps its capacity for the next revolution
      occupancy_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
      sort_near();
      return;
    }
    // Calendar empty: every pending event sits in far_. Each event here
    // is rescanned at most once per revolution; if that bookkeeping ever
    // outweighs the events actually pushed, the horizon distribution is
    // pathological for a calendar and the heap is strictly better.
    far_scanned_ += far_.size();
    if (far_scanned_ > 16 * total_pushed_ + 4096) {
      degrade_to_heap();
      return;
    }
    std::int64_t earliest = bucket_of(far_.front().at);
    for (const Event& event : far_) {
      earliest = std::min(earliest, bucket_of(event.at));
    }
    active_bucket_ = earliest;
    far_boundary_ = earliest + static_cast<std::int64_t>(kNumBuckets);
    std::size_t keep = 0;
    for (std::size_t i = 0; i < far_.size(); ++i) {
      const Event event = far_[i];
      const std::int64_t bucket = bucket_of(event.at);
      if (bucket == active_bucket_) {
        near_.push_back(event);
      } else if (bucket < far_boundary_) {
        const auto slot = static_cast<std::size_t>(bucket) & kBucketMask;
        buckets_[slot].push_back(event);
        occupancy_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
      } else {
        far_[keep++] = event;
      }
    }
    far_.resize(keep);
    sort_near();
  }

  void sort_near() {
    std::sort(near_.begin(), near_.end(), [](const Event& a, const Event& b) {
      return priority(a) < priority(b);
    });
  }

  /// First occupied bin strictly past the active bucket, or -1 when the
  /// calendar is empty. Bin slots alias absolute buckets modulo
  /// kNumBuckets, and occupied buckets all lie in (active, far_boundary)
  /// — a window shorter than one revolution — so within the scan range
  /// each set bit identifies its absolute bucket uniquely.
  [[nodiscard]] std::int64_t find_next_occupied() const noexcept {
    std::int64_t bucket = active_bucket_ + 1;
    while (bucket < far_boundary_) {
      const auto slot = static_cast<std::size_t>(bucket) & kBucketMask;
      const std::uint64_t word = occupancy_[slot >> 6] >> (slot & 63);
      if (word != 0) {
        const std::int64_t found = bucket + std::countr_zero(word);
        return found < far_boundary_ ? found : -1;
      }
      bucket += 64 - static_cast<std::int64_t>(slot & 63);
    }
    return -1;
  }

  /// One-way migration onto the 4-ary heap; pop order is unaffected
  /// because both backends emit strictly ascending (timestamp, sequence)
  /// keys. Triggered only by the pushed-timestamp distribution, so a
  /// degrading run degrades identically everywhere.
  void degrade_to_heap() {
    backend_ = Backend::kHeap;
    heap_.reserve(size_);
    for (std::size_t i = near_pos_; i < near_.size(); ++i) {
      push_heap_event(near_[i]);
    }
    for (auto& bucket : buckets_) {
      for (const Event& event : bucket) {
        push_heap_event(event);
      }
      bucket.clear();
      bucket.shrink_to_fit();
    }
    for (const Event& event : far_) {
      push_heap_event(event);
    }
    near_.clear();
    near_.shrink_to_fit();
    near_pos_ = 0;
    far_.clear();
    far_.shrink_to_fit();
    occupancy_.fill(0);
  }

  /// 4-ary sift-up insertion (hole-based: one copy per level, not a swap).
  void push_heap_event(const Event& event) {
    std::size_t hole = heap_.size();
    heap_.push_back(event);
    while (hole > 0) {
      const std::size_t parent = (hole - 1) >> 2;
      if (!later(heap_[parent], event)) {
        break;
      }
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = event;
  }

  [[nodiscard]] Event pop_heap_event(SimTime& now) {
    const Event top = heap_.front();
    now = top.at;
    const Event tail = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      // Sift the former tail down from the root, stopping as soon as it
      // fits — in a simulation the tail is usually among the latest
      // events, so it sinks deep, and a 4-ary tree halves the depth. The
      // min-of-four-children selection runs on branchless 128-bit keys.
      const std::size_t size = heap_.size();
      const unsigned __int128 tail_key = priority(tail);
      std::size_t hole = 0;
      for (;;) {
        const std::size_t first_child = (hole << 2) + 1;
        if (first_child >= size) {
          break;
        }
        std::size_t best = first_child;
        unsigned __int128 best_key = priority(heap_[first_child]);
        const std::size_t end_child = std::min(first_child + 4, size);
        for (std::size_t child = first_child + 1; child < end_child; ++child) {
          const unsigned __int128 key = priority(heap_[child]);
          const bool earlier = key < best_key;
          best = earlier ? child : best;
          best_key = earlier ? key : best_key;
        }
        if (tail_key <= best_key) {
          break;
        }
        heap_[hole] = heap_[best];
        hole = best;
      }
      heap_[hole] = tail;
    }
    return top;
  }

  Backend backend_;
  /// The backend chosen at construction; reset_run() reverts to it.
  Backend initial_backend_;
  std::size_t size_ = 0;
  std::uint64_t next_sequence_ = 0;

  // Calendar state. `near_` is sorted ascending with a consumed prefix
  // [0, near_pos_); it holds every pending event in bucket <= active.
  // `buckets_` hold unsorted events in (active, far_boundary); `far_`
  // everything at or past far_boundary_. far_boundary_ - active_bucket_
  // never exceeds kNumBuckets, so a bin aliases at most one live bucket.
  std::vector<Event> near_;
  std::size_t near_pos_ = 0;
  std::array<std::vector<Event>, kNumBuckets> buckets_;
  std::array<std::uint64_t, kNumBuckets / 64> occupancy_{};
  std::vector<Event> far_;
  std::int64_t active_bucket_ = 0;
  std::int64_t far_boundary_ = static_cast<std::int64_t>(kNumBuckets);
  std::uint64_t total_pushed_ = 0;
  std::uint64_t far_scanned_ = 0;
  std::uint64_t near_shifted_ = 0;

  // Heap state (fallback backend).
  std::vector<Event> heap_;

  // Payload slot tables, shared by both backends.
  std::vector<MessageSlot> messages_;
  std::vector<std::uint32_t> free_messages_;
  std::vector<Action> controls_;
  std::vector<std::uint32_t> free_controls_;

  // Frame-clock state, shared by both backends. Free members and free
  // group slots are intrusive lists threaded through the pools.
  std::vector<GroupMember> members_;
  std::uint32_t free_member_ = kNoSlot;
  std::vector<TimerGroup> groups_;
  std::uint32_t free_group_ = kNoSlot;
  std::array<OpenGroup, std::size_t{1} << kOpenGroupBits> open_groups_{};
};

}  // namespace slpdas::sim
