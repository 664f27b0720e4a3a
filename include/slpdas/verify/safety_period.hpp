// Safety period (paper Definition 4, Equation 1 and Section VI-B).
//
// The capture time of a protectionless convergecast is
//   C = period_length * (Delta_ss + 1)
// where Delta_ss is the source-sink hop distance: an attacker that walks
// one hop per period from the sink needs Delta_ss + 1 periods' worth of
// observations to arrive. The safety period scales it by Cs (1 < Cs < 2;
// the paper uses 1.5):  delta = Cs * C.
#pragma once

#include "slpdas/detail/spec_format.hpp"
#include "slpdas/mac/frame.hpp"
#include "slpdas/sim/time.hpp"
#include "slpdas/wsn/graph.hpp"

namespace slpdas::verify {

/// Equation 1's admissible safety factors, 1 < Cs < 2: the one bound that
/// compute_safety_period and every Cs reader (the custom scenario's
/// `--set cs`, report labels) check.
inline constexpr detail::Interval kSafetyFactorRange{1.0, 2.0, true, true};

struct SafetyPeriod {
  int source_sink_distance = 0;  ///< Delta_ss (hops)
  double factor = 1.5;           ///< Cs
  int periods = 0;               ///< ceil(Cs * (Delta_ss + 1)) TDMA periods

  /// Wall-clock duration for a given frame layout.
  [[nodiscard]] sim::SimTime duration(const mac::FrameConfig& frame) const noexcept {
    return static_cast<sim::SimTime>(periods) * frame.period();
  }
};

/// Computes the safety period for `source` monitored through `sink` in
/// `graph`. Throws std::invalid_argument if the two are disconnected or
/// `factor` is outside kSafetyFactorRange.
[[nodiscard]] SafetyPeriod compute_safety_period(const wsn::Graph& graph,
                                                 wsn::NodeId source,
                                                 wsn::NodeId sink,
                                                 double factor = 1.5);

}  // namespace slpdas::verify
