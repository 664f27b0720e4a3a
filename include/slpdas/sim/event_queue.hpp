// Deterministic, typed discrete-event queue.
//
// Events at equal timestamps fire in insertion order (a monotonically
// increasing sequence number breaks ties), so a run is a pure function of
// the seed and configuration — the property TOSSIM does not give and the
// main reason we built our own simulator (README, "Simulator internals").
//
// Events are a tagged value type rather than std::function closures, so
// the hot path — message delivery and timer expiry, millions of events
// per experiment — executes with zero per-event heap allocation:
//
//   * Delivery{from, message_slot}: one broadcast is one event. Every
//     reception of a broadcast arrives at the same instant and would have
//     been pushed back to back, so nothing could ever pop between them;
//     push_broadcast stages the shared Message once in a slot table, the
//     receptions that passed the radio draw — each a receiver with its
//     reverse link, one entry — are appended beside it, and the event
//     pops once and dispatches them in neighbour order. The event owns
//     its slot, which is recycled (reception list capacity kept) after
//     dispatch.
//   * Timer{node, timer_id, generation}: armed timers carry the arming
//     generation; the simulator compares it against its dense per-node
//     generation table at pop time, so cancelling or re-arming a timer
//     never allocates and a stale expiry is skipped for free.
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
// Ordering structure: a two-level calendar queue. The simulator's event
// mix is dominated by short horizons (propagation delay ~1 ms, slot
// period 50 ms), so events are binned by time into fixed-width buckets
// (kBucketWidth = 4096 µs, one arithmetic shift) and only the bucket
// currently being drained is kept sorted:
//
//   * `near_` — every pending event whose bucket is <= the active bucket,
//     kept sorted ascending by (timestamp, sequence); pops read the next
//     entry through a consumed-prefix cursor, O(1). A push whose
//     timestamp lands at or past the end of `near_` (the overwhelmingly
//     common case: arrival = now + propagation delay) appends in O(1);
//     anything earlier binary-searches its slot and shifts the tail
//     (trivially-copyable 32-byte moves).
//   * `bins_` — a power-of-two circular array of kNumBuckets unsorted
//     bins covering the next kNumBuckets * kBucketWidth ≈ 4.2 s of
//     simulated time past the active bucket; push is an O(1) append plus
//     one occupancy-bitmap bit. When `near_` drains, the bitmap is
//     scanned (16 words) for the next occupied bin, which is copied into
//     `near_` and sorted once — O(k log k) amortised over its k events.
//     Every bin's floor capacity is one fixed-width segment of a single
//     slab (`slab_`, one allocation per queue): bin s holds its events in
//     slab_[s * floor_, (s + 1) * floor_) until it outgrows that segment,
//     then moves once into its own spill vector and lives there for good
//     (reset_run keeps the spill's capacity, as it keeps every other).
//   * `far_` — the unsorted overflow for events beyond the bucket
//     horizon (source periods, attacker activation). When the calendar
//     runs dry the earliest far bucket becomes the new active window and
//     `far_` is re-partitioned in one pass; a far event is rescanned at
//     most once per calendar revolution (~4 s of simulated time),
//     amortised O(1) for every horizon the protocols use.
//
// Keys (timestamp, sequence) are unique and pop in strictly ascending
// order whatever the timestamp distribution. The cost bounds above hold
// only while pending events are clustered within a few revolutions and
// out-of-order pushes into one bucket stay short. Two shapes break them
// and go quadratic: thousands of pending events each more than one
// revolution apart (every refill rescans all of `far_` to surface one
// event), and long runs of descending pushes inside one bucket (every
// push shifts the whole window tail). No protocol or scenario produces
// either; tests/event_queue_test.cpp pins the order on both.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "slpdas/sim/message.hpp"
#include "slpdas/sim/time.hpp"
#include "slpdas/wsn/graph.hpp"

namespace slpdas::sim {

enum class EventKind : std::uint8_t { kDelivery, kTimer, kTimerGroup };

/// One broadcast's receptions: every receiver listed in the message slot
/// receives the payload `from` sent. Payload and receptions live in the
/// queue's message slot table.
struct DeliveryEvent {
  wsn::NodeId from;
  std::uint32_t message_slot;
};

/// One reception of a staged broadcast: the receiver and its link, the
/// position of the sender in the receiver's sorted neighbour row
/// (wsn::Graph::reverse_links). One entry, so no path of the queue can
/// separate the two.
struct Reception {
  wsn::NodeId to;
  std::uint32_t link;
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

/// The frame-clock expiries of one instant; members live in the queue's
/// member pool (see EventQueue::push_frame_timer).
struct TimerGroupEvent {
  std::uint32_t group_slot;
};

/// A queued event. Trivially copyable by design: bucket refills and tail
/// shifts are memcpy-grade moves, and pop hands the entry back by value.
/// Trivially default-constructible too, so the calendar slab is allocated
/// without writing it (see EventQueue::relay_slab); every push sets all
/// fields. The sequence number and kind tag share one word (kind in the
/// low two bits), so the tie-break comparison is a single integer compare
/// and the whole entry is 32 bytes.
struct Event {
  SimTime at;
  std::uint64_t seq_kind;  ///< (insertion sequence << 2) | kind
  union {
    DeliveryEvent delivery;
    TimerEvent timer;
    TimerGroupEvent group;
  };

  [[nodiscard]] EventKind kind() const noexcept {
    return static_cast<EventKind>(seq_kind & 3u);
  }
  [[nodiscard]] std::uint64_t sequence() const noexcept {
    return seq_kind >> 2;
  }
};

static_assert(std::is_trivially_default_constructible_v<Event> &&
              std::is_trivially_copyable_v<Event>);

class EventQueue {
 public:
  /// "No slot" sentinel for the slot tables.
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// log2 of the bucket width in SimTime ticks (microseconds): 4096 µs.
  /// A few propagation delays wide, so a broadcast's delivery event
  /// usually lands in the active bucket (an O(1) append at the sorted
  /// window's tail) and window refills stay rare; measured fastest on perf_sim
  /// against 1024/2048/8192/16384 µs alternatives.
  static constexpr int kBucketShift = 12;
  /// Number of calendar bins (power of two); the calendar spans
  /// kNumBuckets << kBucketShift ≈ 4.2 s past the active bucket.
  static constexpr std::size_t kNumBuckets = 1024;

  /// Pre-sizes internal storage for a simulation expected to keep up to
  /// `pending_events` events in flight with up to `staged_messages`
  /// concurrently staged broadcast payloads of up to
  /// `receivers_per_message` receptions each (every payload slot created
  /// from then on reserves that many), so steady-state operation reaches
  /// its high-water capacity up front instead of reallocating mid-run.
  /// Every calendar bin gets a floor of max(8, pending_events / 64)
  /// events, all carved out of one slab: the periodic-timer trickle that
  /// cycles through all bins each calendar revolution then never
  /// triggers a first-touch allocation, and the floors cost one
  /// allocation, not kNumBuckets. A burst bin (whole-network slot
  /// broadcasts) spills once into its own storage and keeps it. Callable
  /// any time, pending events included (a larger floor re-lays the slab,
  /// moving every bin still in it); never shrinks.
  void reserve(std::size_t pending_events, std::size_t staged_messages,
               std::size_t receivers_per_message = 0) {
    near_.reserve(pending_events);
    far_.reserve(pending_events);
    const std::size_t floor = std::max<std::size_t>(8, pending_events / 64);
    if (floor > floor_) {
      relay_slab(floor);
    }
    messages_.reserve(staged_messages);
    free_messages_.reserve(staged_messages);
    receiver_capacity_ = std::max(receiver_capacity_, receivers_per_message);
  }

  // -- pushing --------------------------------------------------------------

  /// Enqueues one broadcast: stages `message` in a payload slot and pushes
  /// a single Delivery event for it at `at`. Returns the slot, to which
  /// the caller appends the receptions (add_reception) before the next
  /// pop; the event dispatches them in append order. `at` may equal the
  /// current head time but must never be in the past relative to the last
  /// popped event; the Simulator enforces that invariant (here and for
  /// the other push flavours).
  [[nodiscard]] std::uint32_t push_broadcast(SimTime at, wsn::NodeId from,
                                             MessagePtr message) {
    if (!message) {
      throw std::invalid_argument("EventQueue::push_broadcast: null message");
    }
    std::uint32_t slot;
    if (free_messages_.empty()) {
      slot = static_cast<std::uint32_t>(messages_.size());
      messages_.emplace_back();
      messages_.back().receptions.reserve(receiver_capacity_);
    } else {
      slot = free_messages_.back();
      free_messages_.pop_back();
    }
    messages_[slot].message = std::move(message);
    Event event;
    event.at = at;
    event.seq_kind = next_seq_kind(EventKind::kDelivery);
    event.delivery = DeliveryEvent{from, slot};
    push_event(event);
    return slot;
  }

  /// Appends one reception to the broadcast queued in `slot`.
  void add_reception(std::uint32_t slot, Reception reception) {
    messages_[slot].receptions.push_back(reception);
  }

  /// The staged payload of `slot`. The reference stays valid across queue
  /// mutations (the Message object itself never moves), for the duration
  /// of the delivery being executed.
  [[nodiscard]] const Message& message(std::uint32_t slot) const {
    return *messages_[slot].message;
  }

  /// Receptions appended to `slot`, and the one at `index`. Read by index
  /// while dispatching: a handler that broadcasts may grow the slot table.
  [[nodiscard]] std::size_t reception_count(std::uint32_t slot) const {
    return messages_[slot].receptions.size();
  }
  [[nodiscard]] Reception reception(std::uint32_t slot,
                                    std::size_t index) const {
    return messages_[slot].receptions[index];
  }

  /// Releases the payload of a popped Delivery event and recycles its slot
  /// (the reception list keeps its capacity). Call once, after dispatch.
  void release_message(std::uint32_t slot) {
    MessageSlot& staged = messages_[slot];
    staged.message.reset();
    staged.receptions.clear();
    free_messages_.push_back(slot);
  }

  /// Number of payload slots held by queued or in-flight deliveries
  /// (observability for tests).
  [[nodiscard]] std::size_t staged_message_count() const noexcept {
    return messages_.size() - free_messages_.size();
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

  /// Timestamp of the next event; undefined when empty. Amortised O(1)
  /// (the sorted window is refilled here when the last pop drained it).
  [[nodiscard]] SimTime next_time() {
    materialise_head();
    return near_[near_pos_].at;
  }

  /// Removes and returns the next event by value, advancing `now` to its
  /// timestamp. Delivery events still own their message slot (the caller
  /// releases it after dispatch).
  [[nodiscard]] Event pop(SimTime& now) {
    materialise_head();
    --size_;
    const Event top = near_[near_pos_++];
    now = top.at;
    return top;
  }

  /// Rewinds the queue to its just-constructed state while RETAINING every
  /// capacity a previous run grew (calendar bins, the sorted window, the
  /// payload slot tables and their reception lists), so the next run
  /// reaches its steady state with zero allocations. It is the queue's one
  /// way to drop pending events: the slot tables they point into are
  /// rewound wholesale, which releases every payload and timer group they
  /// hold. The sequence counter and the calendar anchor restart from zero.
  /// This is what makes a forked run bit-identical to a cold-constructed
  /// one.
  void reset_run() {
    for (Bin& bin : bins_) {
      bin.size = 0;
      bin.spill.clear();  // a spilled bin keeps its own storage
    }
    near_.clear();
    near_pos_ = 0;
    far_.clear();
    occupancy_.fill(0);
    // Any payload still staged (including popped-but-unreleased slots —
    // there are none between runs) must not leak into the next seed. The
    // slots themselves stay, reception capacity included, all free and
    // handed out lowest first as in a fresh queue.
    free_messages_.clear();
    for (std::size_t slot = messages_.size(); slot-- > 0;) {
      messages_[slot].message.reset();
      messages_[slot].receptions.clear();
      free_messages_.push_back(static_cast<std::uint32_t>(slot));
    }
    members_.clear();
    free_member_ = kNoSlot;
    groups_.clear();
    free_group_ = kNoSlot;
    open_groups_.fill(OpenGroup{});
    size_ = 0;
    next_sequence_ = 0;
    active_bucket_ = 0;
    far_boundary_ = static_cast<std::int64_t>(kNumBuckets);
  }

 private:
  /// One queued broadcast's payload and the receptions that passed its
  /// radio draws, in neighbour order.
  struct MessageSlot {
    MessagePtr message;
    std::vector<Reception> receptions;
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

  /// One calendar bin: `size` events in its slab segment, or — once it
  /// has outgrown the segment — every event in `spill`.
  struct Bin {
    std::size_t size = 0;
    std::vector<Event> spill;
  };

  /// std::allocator, except that construct() without a value
  /// default-initialises: a vector of a trivially default-constructible
  /// type sized through it allocates its elements without writing them.
  template <typename T>
  struct DefaultInitAllocator : std::allocator<T> {
    template <typename U>
    void construct(U* pointer) noexcept {
      ::new (static_cast<void*>(pointer)) U;
    }
    template <typename U, typename... Args>
    void construct(U* pointer, Args&&... args) {
      ::new (static_cast<void*>(pointer)) U(std::forward<Args>(args)...);
    }
  };

  /// The bin floors' storage, allocated without being written.
  using Slab = std::vector<Event, DefaultInitAllocator<Event>>;

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

  [[nodiscard]] std::uint64_t next_seq_kind(EventKind kind) noexcept {
    return (next_sequence_++ << 2) | static_cast<std::uint64_t>(kind);
  }

  [[nodiscard]] static std::int64_t bucket_of(SimTime at) noexcept {
    return static_cast<std::int64_t>(at) >> kBucketShift;
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
    const std::int64_t bucket = bucket_of(event.at);
    if (near_pos_ == near_.size()) {
      // Drained but not yet refilled: restart the window. A push for the
      // very next bucket, when that bin is empty, moves the window onto
      // it — a slot's delivery events that spill past the slot's bucket
      // then append here instead of filling a bin. Only one bucket ahead:
      // a window moved further would put every later push for the
      // buckets in between in front of it (an insert, not an append).
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
      push_bin(static_cast<std::size_t>(bucket) & kBucketMask, event);
      return;
    }
    far_.push_back(event);
  }

  /// Appends `event` to bin `slot` and marks the bin occupied.
  void push_bin(std::size_t slot, const Event& event) {
    occupancy_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    Bin& bin = bins_[slot];
    if (bin.spill.capacity() == 0) {
      if (bin.size < floor_) {
        slab_[slot * floor_ + bin.size++] = event;
        return;
      }
      spill_bin(bin, slot);
    }
    bin.spill.push_back(event);
  }

  /// Moves a bin whose slab segment is full into its own storage, with
  /// the doubled capacity a vector outgrowing the floor would take.
  [[gnu::noinline]] void spill_bin(Bin& bin, std::size_t slot) {
    const auto first = segment(slot);
    bin.spill.reserve(2 * floor_);
    bin.spill.assign(first, first + static_cast<std::ptrdiff_t>(bin.size));
    bin.size = 0;
  }

  /// The first slab slot of bin `slot`'s segment.
  [[nodiscard]] Slab::iterator segment(std::size_t slot) noexcept {
    return slab_.begin() + static_cast<std::ptrdiff_t>(slot * floor_);
  }

  /// Re-lays the slab with a larger floor, moving the events of every bin
  /// still in it to the same bin's new segment. A spilled bin stays in
  /// its own storage, which grows to the floor if smaller. The new slab
  /// is left unwritten, since a slot is only read after a push wrote it:
  /// zero-filling it (3.5 MB on grid:41) took longer than the per-bin
  /// allocations the slab replaced.
  void relay_slab(std::size_t floor) {
    Slab slab(kNumBuckets * floor);
    for (std::size_t slot = 0; slot < kNumBuckets; ++slot) {
      Bin& bin = bins_[slot];
      if (bin.spill.capacity() == 0) {
        std::copy_n(segment(slot), bin.size,
                    slab.begin() + static_cast<std::ptrdiff_t>(slot * floor));
      } else {
        bin.spill.reserve(floor);
      }
    }
    slab_ = std::move(slab);
    floor_ = floor;
  }

  /// The sorted window's out-of-order insert, kept out of line so the
  /// append paths of push_event stay small enough to inline into every
  /// push.
  [[gnu::noinline]] void insert_near(const Event& event) {
    const unsigned __int128 key = priority(event);
    const auto insert_at = std::upper_bound(
        near_.begin() + static_cast<std::ptrdiff_t>(near_pos_), near_.end(),
        key, [](unsigned __int128 lhs, const Event& rhs) {
          return lhs < priority(rhs);
        });
    // The tail past the insertion point shifts one slot (contiguous
    // 32-byte moves).
    near_.insert(insert_at, event);
  }

  /// Refills a drained sorted window before the head is read. Lazily, not
  /// at the pop that drained it: the handler of that last event still
  /// pushes near `now`, and with the window left on `now`'s bucket those
  /// pushes append instead of being inserted in front of a bin that a
  /// refill pulled in from further ahead.
  void materialise_head() {
    if (near_pos_ == near_.size()) {
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
      Bin& bin = bins_[slot];
      if (bin.spill.capacity() == 0) {
        const auto first = segment(slot);
        near_.assign(first, first + static_cast<std::ptrdiff_t>(bin.size));
        bin.size = 0;
      } else {
        near_.assign(bin.spill.begin(), bin.spill.end());
        bin.spill.clear();  // keeps its capacity for the next revolution
      }
      occupancy_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
      sort_near();
      return;
    }
    // Calendar empty: every pending event sits in far_, and each one is
    // rescanned here at most once per revolution.
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
        push_bin(static_cast<std::size_t>(bucket) & kBucketMask, event);
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

  std::size_t size_ = 0;
  std::uint64_t next_sequence_ = 0;

  // Calendar state. `near_` is sorted ascending with a consumed prefix
  // [0, near_pos_); it holds every pending event in bucket <= active.
  // `bins_` hold unsorted events in (active, far_boundary); `far_`
  // everything at or past far_boundary_. far_boundary_ - active_bucket_
  // never exceeds kNumBuckets, so a bin aliases at most one live bucket.
  // Bin s lives in slab_[s * floor_, s * floor_ + size) while its spill
  // has no capacity, and in its spill from then on; addressed by offset,
  // so a copied or moved queue stays valid.
  std::vector<Event> near_;
  std::size_t near_pos_ = 0;
  std::array<Bin, kNumBuckets> bins_;
  Slab slab_;
  std::size_t floor_ = 0;
  std::array<std::uint64_t, kNumBuckets / 64> occupancy_{};
  std::vector<Event> far_;
  std::int64_t active_bucket_ = 0;
  std::int64_t far_boundary_ = static_cast<std::int64_t>(kNumBuckets);

  // Payload slot tables.
  std::vector<MessageSlot> messages_;
  std::vector<std::uint32_t> free_messages_;
  std::size_t receiver_capacity_ = 0;

  // Frame-clock state. Free members and free group slots are intrusive
  // lists threaded through the pools.
  std::vector<GroupMember> members_;
  std::uint32_t free_member_ = kNoSlot;
  std::vector<TimerGroup> groups_;
  std::uint32_t free_group_ = kNoSlot;
  std::array<OpenGroup, std::size_t{1} << kOpenGroupBits> open_groups_{};
};

}  // namespace slpdas::sim
