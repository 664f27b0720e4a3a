#include "slpdas/verify/safety_period.hpp"

#include <cmath>
#include <stdexcept>

#include "slpdas/wsn/paths.hpp"

namespace slpdas::verify {

SafetyPeriod compute_safety_period(const wsn::Graph& graph, wsn::NodeId source,
                                   wsn::NodeId sink, double factor) {
  if (!kSafetyFactorRange.contains(factor)) {
    throw std::invalid_argument("compute_safety_period: Eq. 1 requires Cs in " +
                                kSafetyFactorRange.to_string());
  }
  const int distance = wsn::hop_distance(graph, source, sink);
  if (distance == wsn::kUnreachable) {
    throw std::invalid_argument(
        "compute_safety_period: source and sink are disconnected");
  }
  SafetyPeriod result;
  result.source_sink_distance = distance;
  result.factor = factor;
  result.periods =
      static_cast<int>(std::ceil(factor * static_cast<double>(distance + 1)));
  return result;
}

}  // namespace slpdas::verify
