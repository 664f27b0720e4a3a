// Topology and schedule rendering: ASCII grid maps. Used by the examples
// for eyeballing schedules, decoy paths and attacker walks.
#pragma once

#include <string>
#include <vector>

#include "slpdas/mac/schedule.hpp"
#include "slpdas/wsn/topology.hpp"

namespace slpdas::mac {

using wsn::NodeId;
using wsn::Topology;

/// ASCII map of a `width` x `height` grid topology: one cell per node,
/// showing S (source), K (sink), '#' (highlighted), '.' otherwise — or the
/// node's slot value when a schedule is given.
[[nodiscard]] std::string render_grid_ascii(
    const Topology& topology, int width, int height,
    const mac::Schedule* schedule = nullptr,
    const std::vector<NodeId>& highlight = {});

}  // namespace slpdas::mac
