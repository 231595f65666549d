// Maps physical link properties (length, tier) to edge latencies/bandwidths.
//
// Distances are kilometres; latencies are milliseconds. The constants model
// a metropolitan edge deployment: fibre backbone between routers, wireless
// access hop between a device and its attachment router.
#pragma once

#include "topology/graph.hpp"

namespace tacc::topo {

/// Effective one-way latency per km. Raw fibre propagation is ~0.005 ms/km,
/// but metro edge links route indirectly and carry serialization and
/// shallow-queue latency roughly proportional to span; 0.25 ms/km
/// reproduces the 1–10 ms one-way metro link latencies reported in edge
/// measurement studies, and — crucially for this paper — makes delay
/// *distance- and hop-dependent*, so topology awareness has signal.
inline constexpr double kPropagationMsPerKm = 0.25;
/// Store-and-forward / switching cost added per link traversal.
inline constexpr double kPerHopForwardingMs = 0.5;
/// Extra latency on wireless access links (MAC contention, radio).
inline constexpr double kWirelessAccessExtraMs = 2.0;
inline constexpr double kBackboneBandwidthMbps = 1000.0;
inline constexpr double kAccessBandwidthMbps = 50.0;

/// A wired link between routers (or a server and its router).
[[nodiscard]] inline EdgeProps backbone_link(double distance_km) noexcept {
  return {kPerHopForwardingMs + kPropagationMsPerKm * distance_km,
          kBackboneBandwidthMbps};
}

/// A wireless access link between a device and its router.
[[nodiscard]] inline EdgeProps access_link(double distance_km) noexcept {
  return {kPerHopForwardingMs + kWirelessAccessExtraMs +
              kPropagationMsPerKm * distance_km,
          kAccessBandwidthMbps};
}

}  // namespace tacc::topo
