// Radio reception models.
//
// The paper simulates in TOSSIM with an "ideal communication model" plus
// the casino-lab noise trace (Section VI-A). The noise trace's effect is
// that individual receptions fail, which (a) perturbs parent/slot choices
// during setup and (b) makes the attacker occasionally miss the message it
// would otherwise have followed — this is what turns capture into a
// probabilistic event. We model reception success directly:
//
//  * IdealRadio      — every reception succeeds (paper's ideal model).
//  * LossyRadio      — i.i.d. Bernoulli loss per reception.
//  * CasinoLabNoise  — a two-state Markov-modulated loss process (quiet
//    floor with interference bursts), our synthetic stand-in for the
//    casino-lab RSSI trace. The scenario abl_noise measures how much the
//    substitution matters against ideal and i.i.d. radios.
#pragma once

#include <memory>

#include "slpdas/rng.hpp"
#include "slpdas/sim/time.hpp"
#include "slpdas/wsn/graph.hpp"

namespace slpdas::sim {

/// Decides, per (link, instant), whether a reception succeeds. Stateful
/// models advance their internal state monotonically with `at`.
class RadioModel {
 public:
  virtual ~RadioModel() = default;

  /// True iff the transmission from `from` reaches `to` at time `at`.
  /// Randomness must be drawn only from `rng` so runs stay reproducible.
  [[nodiscard]] virtual bool delivered(wsn::NodeId from, wsn::NodeId to,
                                       SimTime at, Rng& rng) = 0;

  /// Rewinds any internal state to the just-constructed value so the same
  /// model instance can serve the next seed of a batched cell (the
  /// phase-prefix fork path). Stateless models need not override.
  virtual void reset_run() noexcept {}
};

/// Loss-free radio: the paper's ideal communication model.
class IdealRadio final : public RadioModel {
 public:
  [[nodiscard]] bool delivered(wsn::NodeId, wsn::NodeId, SimTime,
                               Rng&) override {
    return true;
  }
};

/// Independent per-reception loss with fixed probability.
class LossyRadio final : public RadioModel {
 public:
  explicit LossyRadio(double loss_probability);

  [[nodiscard]] bool delivered(wsn::NodeId from, wsn::NodeId to, SimTime at,
                               Rng& rng) override;

  [[nodiscard]] double loss_probability() const noexcept { return loss_; }

 private:
  double loss_;
};

/// Parameters of the synthetic casino-lab-like noise process.
struct CasinoLabParams {
  double quiet_loss = 0.02;     ///< reception loss in the quiet state
  double burst_loss = 0.55;     ///< reception loss during a noise burst
  SimTime mean_quiet = 12 * kSecond;  ///< mean sojourn in the quiet state
  SimTime mean_burst = 1 * kSecond;   ///< mean sojourn in the burst state
};

/// Two-state Markov-modulated loss: long quiet stretches with a small floor
/// loss, interrupted by short bursts of heavy loss. State transitions are
/// sampled with exponential sojourn times using the simulator RNG, so the
/// whole process is seed-deterministic.
class CasinoLabNoise final : public RadioModel {
 public:
  explicit CasinoLabNoise(const CasinoLabParams& params = {});

  [[nodiscard]] bool delivered(wsn::NodeId from, wsn::NodeId to, SimTime at,
                               Rng& rng) override;

  /// Non-virtual reception decision with the state-transition check
  /// inlined: the overwhelmingly common case is `at` before the next
  /// sojourn transition, which costs one compare plus one Bernoulli draw.
  /// The Simulator calls this directly when it detects a CasinoLabNoise
  /// radio, skipping the virtual dispatch on the hottest per-reception
  /// path. Draw order is identical to delivered(): transitions first
  /// (only when due), then the loss draw.
  [[nodiscard]] bool decide(SimTime at, Rng& rng) {
    if (at >= next_transition_) {
      advance_to(at, rng);
    }
    return !rng.bernoulli(in_burst_ ? params_.burst_loss : params_.quiet_loss);
  }

  /// Whether the process is currently in the burst state (for tests).
  [[nodiscard]] bool in_burst() const noexcept { return in_burst_; }

  void reset_run() noexcept override {
    in_burst_ = false;
    next_transition_ = -1;
  }

 private:
  void advance_to(SimTime at, Rng& rng);

  CasinoLabParams params_;
  bool in_burst_ = false;
  SimTime next_transition_ = -1;  ///< lazily initialised on first use
};

/// Convenience factories.
[[nodiscard]] std::unique_ptr<RadioModel> make_ideal_radio();
[[nodiscard]] std::unique_ptr<RadioModel> make_lossy_radio(double loss);
[[nodiscard]] std::unique_ptr<RadioModel> make_casino_lab_noise(
    const CasinoLabParams& params = {});

}  // namespace slpdas::sim
