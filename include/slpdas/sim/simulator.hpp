// The discrete-event WSN simulator (our TOSSIM substitute).
//
// One Process per graph node runs a message-passing state machine in the
// guarded-command style of the paper's Section III: timers model
// timeout(t) guards, per-process FIFO delivery models the channel variable
// `ch`, and broadcast() delivers a message to every 1-hop neighbour that
// the radio model lets through.
//
// Determinism: all randomness flows through one seeded Rng, events tie-break
// by insertion order, and neighbour iteration order is sorted, so a run is
// fully reproducible from (graph, protocol, seed).
//
// Performance: events are typed values (see event_queue.hpp), so the hot
// path — delivery and timer expiry — runs with zero per-event heap
// allocation. Timer cancellation state lives in a dense per-node
// generation table here, checked when an expiry pops, and the simulator
// counts events/deliveries/timer-fires for the perf telemetry the sweep
// JSON reports. A broadcast is one queue event that dispatches all its
// receptions, and timers armed for network-wide instants
// (set_frame_timer) share one queue event per instant — the frame clock;
// both dispatch in exactly the order per-receiver and per-node events
// would have.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "slpdas/rng.hpp"
#include "slpdas/sim/event_queue.hpp"
#include "slpdas/sim/message.hpp"
#include "slpdas/sim/radio.hpp"
#include "slpdas/sim/time.hpp"
#include "slpdas/wsn/graph.hpp"

namespace slpdas::sim {

class Simulator;

/// Passive observer of every transmission in the network, regardless of
/// graph adjacency. The attacker runtime plugs in here: an eavesdropper is
/// not a protocol participant, it just overhears the medium.
class TransmissionObserver {
 public:
  virtual ~TransmissionObserver() = default;
  virtual void on_transmission(wsn::NodeId from, const Message& message,
                               SimTime at) = 0;
};

/// A node's protocol state machine. Derive, implement the handlers, and
/// register with Simulator::add_process.
class Process {
 public:
  virtual ~Process() = default;

  [[nodiscard]] wsn::NodeId id() const noexcept { return id_; }

  /// Called once at simulation start (time 0), before any event fires.
  virtual void on_start() {}
  /// Called for every successfully received broadcast, in FIFO order.
  virtual void on_message(wsn::NodeId from, const Message& message) = 0;
  /// Called when a timer armed with set_timer(timer_id, ...) fires.
  virtual void on_timer(int timer_id) { (void)timer_id; }

  /// Called by Simulator::reset_run (the batched phase-prefix fork path):
  /// the process must rewind every per-run mutable member to its
  /// just-constructed value — state captured from (config, topology)
  /// alone may persist — so the next seed behaves exactly like a freshly
  /// constructed process. The default THROWS: a process type that has not
  /// declared its seed-independent state must never be silently forked.
  virtual void reset_run();

 protected:
  /// Broadcasts to all 1-hop neighbours (subject to the radio model).
  void broadcast(MessagePtr message);

  /// Arms (or re-arms) the named timer to fire `delay` from now. Re-arming
  /// supersedes any pending expiry of the same timer. Timer ids must be
  /// non-negative (they index the simulator's dense per-node generation
  /// table); small consecutive ids cost O(1) memory per node.
  void set_timer(int timer_id, SimTime delay);

  /// set_timer for an expiry instant many nodes share: a TDMA period
  /// boundary, the end of the dissemination window, a data slot. Expiries
  /// armed back to back for one instant ride a single queue event (the
  /// frame clock) instead of one event per node. Otherwise identical to
  /// set_timer — same id space, cancel_timer and re-arming apply, and
  /// on_timer calls happen in exactly the order set_timer would give.
  void set_frame_timer(int timer_id, SimTime delay);

  /// Disarms the named timer. A no-op if not pending — in particular,
  /// cancelling a timer this process never armed allocates nothing.
  void cancel_timer(int timer_id);

  [[nodiscard]] SimTime now() const;
  [[nodiscard]] Rng& rng();
  [[nodiscard]] const wsn::Graph& graph() const;

  /// Inside on_message: the position of the sender in this node's sorted
  /// neighbour row, i.e. graph().neighbors(id())[delivery_link()] == from.
  /// Lets a receiver index per-neighbour state without a search.
  /// Meaningless outside a reception.
  [[nodiscard]] std::uint32_t delivery_link() const noexcept;
  [[nodiscard]] Simulator& simulator() noexcept { return *simulator_; }

 private:
  friend class Simulator;

  Simulator* simulator_ = nullptr;
  wsn::NodeId id_ = wsn::kNoNode;
};

/// Per-node traffic counters used for the message-overhead experiment.
struct TrafficCounters {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t bytes_sent = 0;
};

class Simulator {
 public:
  /// `graph` must outlive the simulator. `radio` decides per-reception
  /// success; `seed` drives all randomness.
  Simulator(const wsn::Graph& graph, std::unique_ptr<RadioModel> radio,
            std::uint64_t seed);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Registers the protocol instance for node `node`. Must be called for
  /// every node before run(); each node gets exactly one process.
  void add_process(wsn::NodeId node, std::unique_ptr<Process> process);

  /// Registers a passive eavesdropper; not owned.
  void add_observer(TransmissionObserver* observer);

  /// Rewinds the simulator to time 0 under a fresh seed WITHOUT releasing
  /// any capacity: the event queue, timer tables and counters all reset in
  /// place; every registered process and the radio model get their
  /// reset_run() hook (which clears per-node state but keeps its
  /// capacity); observers stay registered.
  /// The next step() re-fires on_start in node order, exactly like a
  /// cold-constructed simulator — this is the seed N+1 path of batched
  /// cell execution (RunBatch forks one simulator per worker and resets
  /// it between seeds instead of reconstructing it).
  void reset_run(std::uint64_t seed);

  /// Runs until the queue drains, `end` is reached, or stop() is called.
  /// Returns the number of events executed.
  std::uint64_t run_until(SimTime end);

  /// Executes exactly one event if any is pending and before `end`.
  bool step(SimTime end);

  /// Stops the run loop after the current event completes.
  void stop() noexcept { stopped_ = true; }
  [[nodiscard]] bool stopped() const noexcept { return stopped_; }

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] Rng& rng() noexcept { return rng_; }
  [[nodiscard]] const wsn::Graph& graph() const noexcept { return graph_; }
  [[nodiscard]] RadioModel& radio() noexcept { return *radio_; }

  /// One reception decision through the simulator's radio model and RNG —
  /// the single choke point for radio draws, used by the broadcast loop
  /// and the attacker runtime alike so the draw order stays pinned. For
  /// the default CasinoLabNoise model the virtual dispatch is bypassed
  /// via a cached downcast (the model's state-transition fast path then
  /// inlines here).
  [[nodiscard]] bool radio_delivered(wsn::NodeId from, wsn::NodeId to,
                                     SimTime at) {
    return casino_ != nullptr ? casino_->decide(at, rng_)
                              : radio_->delivered(from, to, at, rng_);
  }

  [[nodiscard]] Process& process(wsn::NodeId node);
  [[nodiscard]] const Process& process(wsn::NodeId node) const;

  /// Traffic counters for node `node` (all message types combined).
  [[nodiscard]] const TrafficCounters& traffic(wsn::NodeId node) const;
  /// Total messages sent, by message-type name. Materialised on demand
  /// from the pointer-keyed hot-path counters (a handful of message
  /// classes exist, so the per-broadcast count is a short scan over
  /// stable name pointers instead of a string hash per send).
  [[nodiscard]] const std::unordered_map<std::string, std::uint64_t>&
  sends_by_type() const;
  /// Sent count for one message class by its static kName pointer-or-text
  /// (strcmp over ≤ a handful of counter entries) — the allocation-free
  /// alternative to materialising sends_by_type() per run.
  [[nodiscard]] std::uint64_t sent_of(const char* name) const noexcept;
  [[nodiscard]] std::uint64_t total_sent() const noexcept { return total_sent_; }
  /// Every popped event, including stale (re-armed or cancelled) timer
  /// expiries that were skipped at pop time.
  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return events_executed_;
  }
  /// Delivery events executed. One event carries every reception of one
  /// broadcast, so a broadcast counts once however many neighbours hear
  /// it (per-node receptions are in traffic()). Like timers_fired(), this
  /// keeps events - deliveries - timers fired = stale timer events.
  [[nodiscard]] std::uint64_t deliveries_executed() const noexcept {
    return deliveries_executed_;
  }
  /// Timer events that made at least one on_timer call. A frame-clock
  /// event counts once however many nodes it serves.
  [[nodiscard]] std::uint64_t timers_fired() const noexcept {
    return timers_fired_;
  }

  /// One-way propagation + processing latency applied to every delivery.
  /// Small relative to the 50 ms slot period; configurable for tests.
  void set_propagation_delay(SimTime delay);
  [[nodiscard]] SimTime propagation_delay() const noexcept {
    return propagation_delay_;
  }

 private:
  friend class Process;

  void do_broadcast(wsn::NodeId from, MessagePtr message);
  /// Arms (or re-arms) timer `timer_id` of `node`: bumps the generation in
  /// the dense per-node table and pushes one POD timer event, or — with
  /// `frame_clock` — one frame-clock expiry. Throws std::invalid_argument
  /// on a negative timer id or delay, and std::overflow_error when
  /// now() + delay overflows SimTime.
  void arm_timer(wsn::NodeId node, int timer_id, SimTime delay,
                 bool frame_clock);
  /// True when a popped expiry's arming generation is still current, i.e.
  /// the timer was neither re-armed nor cancelled since.
  [[nodiscard]] bool timer_current(const TimerEvent& timer) const noexcept;
  /// Invalidates any pending expiry of timer `timer_id` of `node`. A no-op
  /// for a timer that was never armed (no generation entry is created).
  void disarm_timer(wsn::NodeId node, int timer_id) noexcept;

  /// Re-lays the flat timer-generation table out with a wider per-node
  /// stride (next power of two above `timer_id`), preserving existing
  /// generations. Cold path: protocols use small consecutive ids, so the
  /// default stride of 8 almost never grows.
  void grow_timer_table(int timer_id);

  /// Bumps the per-type send counter for a message class. `name` must be
  /// the class's stable name() pointer (one static string per class), so
  /// identity compare suffices and the scan is over ≤ a handful of
  /// entries.
  void count_send(const char* name);

  const wsn::Graph& graph_;
  std::unique_ptr<RadioModel> radio_;
  /// The link of the reception being dispatched (Process::delivery_link).
  std::uint32_t delivery_link_ = 0;
  Rng rng_;
  EventQueue queue_;
  SimTime now_ = 0;
  SimTime propagation_delay_ = kMillisecond;
  bool started_ = false;
  bool stopped_ = false;
  std::uint64_t events_executed_ = 0;
  std::uint64_t deliveries_executed_ = 0;
  std::uint64_t timers_fired_ = 0;
  std::uint64_t total_sent_ = 0;
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<TrafficCounters> traffic_;
  /// timer_generations_[node * timer_stride_ + timer_id] — current arming
  /// generation of each timer, checked when an expiry pops. One flat
  /// array (not per-node vectors, not hash maps): the set of timer ids a
  /// protocol uses is small and consecutive, so the check is one indexed
  /// load with no second indirection on the hot path. The stride widens
  /// (grow_timer_table) iff a protocol ever arms an id >= timer_stride_.
  std::vector<std::uint64_t> timer_generations_;
  std::size_t timer_stride_ = 8;
  std::vector<TransmissionObserver*> observers_;
  /// Hot-path send accounting: one entry per message class, keyed by the
  /// class's static name() pointer. Folded into sends_by_type_ lazily.
  struct SendCounter {
    const char* name;
    std::uint64_t count;
  };
  std::vector<SendCounter> send_counters_;
  mutable std::unordered_map<std::string, std::uint64_t> sends_by_type_;
  /// Cached downcast of radio_ when it is the CasinoLabNoise model —
  /// lets radio_delivered() skip the virtual call on the hot path.
  CasinoLabNoise* casino_ = nullptr;
};

// ---- inline hot paths ------------------------------------------------------
// The timer chain (Process::set_timer -> Simulator::arm_timer ->
// EventQueue::push_timer) runs tens of millions of times per sweep cell —
// every HELLO jitter, dissemination window, slot fire and period boundary
// arms a timer — so the whole chain is defined here, after both classes
// are complete, and collapses to a generation bump plus a queue push.

inline void Simulator::arm_timer(wsn::NodeId node, int timer_id,
                                 SimTime delay, bool frame_clock) {
  if (timer_id < 0) {
    throw std::invalid_argument("Process::set_timer: negative timer id");
  }
  if (delay > 0 && now_ > std::numeric_limits<SimTime>::max() - delay) {
    throw std::overflow_error("Process::set_timer: expiry overflows SimTime");
  }
  if (static_cast<std::size_t>(timer_id) >= timer_stride_) {
    grow_timer_table(timer_id);
  }
  const std::uint64_t generation =
      ++timer_generations_[static_cast<std::size_t>(node) * timer_stride_ +
                           static_cast<std::size_t>(timer_id)];
  if (frame_clock) {
    queue_.push_frame_timer(now_ + delay, node, timer_id, generation);
  } else {
    queue_.push_timer(now_ + delay, node, timer_id, generation);
  }
}

inline bool Simulator::timer_current(const TimerEvent& timer) const noexcept {
  // An armed timer's id is always < timer_stride_ (arm_timer grows the
  // table first), so the indexed load needs no bounds check.
  return timer_generations_[static_cast<std::size_t>(timer.node) *
                                timer_stride_ +
                            static_cast<std::size_t>(timer.timer_id)] ==
         timer.generation;
}

inline void Simulator::disarm_timer(wsn::NodeId node, int timer_id) noexcept {
  if (timer_id >= 0 && static_cast<std::size_t>(timer_id) < timer_stride_) {
    // Bumping the generation invalidates any pending expiry. A timer id
    // past the table's stride was never armed: nothing to invalidate, and
    // deliberately nothing grown either.
    ++timer_generations_[static_cast<std::size_t>(node) * timer_stride_ +
                         static_cast<std::size_t>(timer_id)];
  }
}

inline void Process::set_timer(int timer_id, SimTime delay) {
  if (simulator_ == nullptr) {
    throw std::logic_error("Process::set_timer before registration");
  }
  if (delay < 0) {
    throw std::invalid_argument("Process::set_timer: negative delay");
  }
  simulator_->arm_timer(id_, timer_id, delay, /*frame_clock=*/false);
}

inline void Process::set_frame_timer(int timer_id, SimTime delay) {
  if (simulator_ == nullptr) {
    throw std::logic_error("Process::set_frame_timer before registration");
  }
  if (delay < 0) {
    throw std::invalid_argument("Process::set_frame_timer: negative delay");
  }
  simulator_->arm_timer(id_, timer_id, delay, /*frame_clock=*/true);
}

inline std::uint32_t Process::delivery_link() const noexcept {
  return simulator_->delivery_link_;
}

inline void Process::cancel_timer(int timer_id) {
  if (simulator_ != nullptr) {
    simulator_->disarm_timer(id_, timer_id);
  }
}

}  // namespace slpdas::sim
