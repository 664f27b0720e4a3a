// The capture-ratio experiment harness (paper Section VI).
//
// One "run" reproduces a single TOSSIM execution: build the topology, run
// the chosen protocol through neighbour discovery and setup, start the
// data phase and the eavesdropper at period MSP, and record whether the
// attacker reaches the source within the safety period. An "experiment"
// repeats runs over distinct seeds and aggregates capture ratio, capture
// time, message overhead, delivery and schedule-validity statistics.
// This header holds the configuration and result types; RunBatch
// (run_batch.hpp) executes the runs and run_sweep (sweep.hpp) drives
// whole grids of configurations through it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "slpdas/attacker/model.hpp"
#include "slpdas/core/parameters.hpp"
#include "slpdas/metrics/stats.hpp"
#include "slpdas/sim/radio.hpp"
#include "slpdas/wsn/topology.hpp"
#include "slpdas/wsn/topology_spec.hpp"

namespace slpdas::core {

enum class ProtocolKind {
  kProtectionlessDas,  ///< Phase 1 only (the paper's baseline)
  kSlpDas,             ///< full 3-phase SLP-aware protocol
  kPhantomRouting,     ///< routing-layer SLP baseline (Kamat et al. [4])
};

[[nodiscard]] const char* to_string(ProtocolKind kind) noexcept;

enum class RadioKind {
  kIdeal,      ///< no losses (fully deterministic runs)
  kLossy,      ///< i.i.d. per-reception loss
  kCasinoLab,  ///< bursty Markov-modulated loss (default; see sim/radio.hpp)
};

[[nodiscard]] const char* to_string(RadioKind kind) noexcept;

/// Attacker specification by value.
///
/// Specs have a canonical string grammar mirroring the paper's
/// (R,H,M,s0,D) model: "R=2,H=4,M=1,D=min-slot". Every key is optional in
/// parse() (defaults are the paper's classic attacker); to_spec() prints
/// all four keys, so equal specs always print equal strings and
/// parse(to_spec()) round-trips exactly.
struct AttackerSpec {
  int messages_per_move = 1;  ///< R
  int history_size = 0;       ///< H
  int moves_per_period = 1;   ///< M
  attacker::Decision decision = attacker::Decision::kFirstHeard;  ///< D

  /// Parses "R=..,H=..,M=..,D=.." (any subset, any order; R, M >= 1,
  /// H >= 0; D is one of first-heard, min-slot, history-avoiding,
  /// random; each key at most once). Throws std::invalid_argument naming
  /// the bad key or value.
  [[nodiscard]] static AttackerSpec parse(std::string_view text);
  /// Canonical spec string, e.g. "R=1,H=0,M=1,D=first-heard".
  [[nodiscard]] std::string to_spec() const;

  /// The runtime parameters with s0 = `start`; throws
  /// std::invalid_argument on out-of-range R, H or M.
  [[nodiscard]] attacker::AttackerParams build(wsn::NodeId start) const;

  friend bool operator==(const AttackerSpec&, const AttackerSpec&) = default;
};

struct ExperimentConfig {
  /// Declarative topology spec — the graph is materialised lazily, once
  /// per cell/experiment inside the harness, so configs stay cheap values
  /// whose size never scales with the network.
  wsn::TopologySpec topology;
  ProtocolKind protocol = ProtocolKind::kProtectionlessDas;
  Parameters parameters{};
  AttackerSpec attacker{};
  RadioKind radio = RadioKind::kCasinoLab;
  /// Random-walk length for ProtocolKind::kPhantomRouting (Kamat's h).
  int phantom_walk_length = 10;
  double loss_probability = 0.05;        ///< for RadioKind::kLossy
  sim::CasinoLabParams casino{};         ///< for RadioKind::kCasinoLab
  int runs = 100;
  bool check_schedules = true;  ///< run Def 1-3 checkers on every run
};

/// Outcome of one seeded run.
struct RunResult {
  bool captured = false;           ///< within the safety period
  std::optional<double> capture_time_s;  ///< since source activation
  int safety_periods = 0;
  int source_sink_distance = 0;
  bool schedule_complete = false;
  bool weak_das_ok = false;
  bool strong_das_ok = false;
  /// Slot-band shape of the extracted schedule (complete, non-phantom runs
  /// only): max - min + 1 and assigned/span (see mac::ScheduleStats).
  int schedule_slot_span = 0;
  double schedule_density = 0.0;
  double delivery_ratio = 0.0;      ///< sink-delivered / source-generated
  double delivery_latency_s = 0.0;  ///< mean aggregation latency at the sink
  double control_messages_per_node = 0.0;  ///< HELLO+DISSEM+SEARCH+CHANGE
  double normal_messages_per_node = 0.0;
  int attacker_moves = 0;
  /// Simulator event-loop telemetry (deterministic in (config, seed)):
  /// every popped event, the deliveries dispatched, and the timers fired.
  /// Feeds the per-cell perf block of the sweep JSON.
  std::uint64_t events_executed = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t timer_fires = 0;
};

/// Aggregate over all runs of one configuration.
struct ExperimentResult {
  metrics::ProportionStats capture;             ///< the paper's capture ratio
  metrics::RunningStats capture_time_s;         ///< captured runs only
  metrics::RunningStats delivery_ratio;
  metrics::RunningStats delivery_latency_s;
  metrics::RunningStats control_messages_per_node;
  metrics::RunningStats normal_messages_per_node;
  metrics::RunningStats attacker_moves;
  metrics::RunningStats slot_band_span;     ///< complete schedules only
  metrics::RunningStats schedule_density;   ///< complete schedules only
  int schedule_incomplete_runs = 0;
  int weak_das_failures = 0;
  int strong_das_failures = 0;
  int runs = 0;
  /// Event-loop telemetry summed over all runs (order-independent, so
  /// aggregation stays bit-identical for any thread count).
  std::uint64_t events_executed = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t timer_fires = 0;
};

/// Canonical protocol spec string: the ProtocolKind name, plus the walk
/// length for phantom routing ("phantom-routing:h=10") since it changes
/// the experiment.
[[nodiscard]] std::string format_protocol_spec(ProtocolKind kind,
                                               int phantom_walk_length);

/// Parses a protocol spec ('_' accepted for '-') and applies it to the
/// config (kind, and for phantom routing the walk length). Throws
/// std::invalid_argument listing the valid names.
void apply_protocol_spec(std::string_view text, ExperimentConfig& config);

/// Canonical radio spec string: the RadioKind name, with the loss
/// probability for the i.i.d. model ("lossy:p=0.05"). The casino-lab
/// burst parameters are not part of the spec grammar; non-default
/// CasinoLabParams stay a C++-only configuration.
[[nodiscard]] std::string format_radio_spec(RadioKind kind,
                                            double loss_probability);

/// Parses "ideal", "casino-lab", "lossy" or "lossy:p=0.08" (p in [0, 1],
/// never NaN) and applies it to the config. Throws std::invalid_argument
/// listing the valid names.
void apply_radio_spec(std::string_view text, ExperimentConfig& config);

/// Builds a fresh instance of the radio model `config` selects (radio
/// models are stateful, so each run constructs its own). Throws
/// std::invalid_argument on an unknown radio kind.
[[nodiscard]] std::unique_ptr<sim::RadioModel> make_radio(
    const ExperimentConfig& config);

/// Folds per-run results into an aggregate IN THE GIVEN ORDER, so callers
/// that collect runs by index get bit-identical aggregates regardless of
/// how many threads produced them. `check_schedules` mirrors
/// ExperimentConfig::check_schedules: when false, the weak/strong DAS
/// failure counters stay zero.
[[nodiscard]] ExperimentResult aggregate_runs(const std::vector<RunResult>& runs,
                                              bool check_schedules);

}  // namespace slpdas::core
