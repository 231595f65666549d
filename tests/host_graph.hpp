// Test-only reference for the host table: the device-as-node graph that a
// NetworkTopology's host table stands for. Each attached device becomes a
// graph node, linked to its anchor router by its access link, so a
// textbook Dijkstra over the result (tests/reference_dijkstra.hpp, relays =
// net.router_count()) gives every device's delay without the library's
// key-row-plus-latency shortcut.
#pragma once

#include <vector>

#include "topology/network.hpp"

namespace tacc::test {

struct HostGraph {
  /// net.graph, then one node per attached host slot, in slot order.
  topo::Graph graph;
  /// Per host slot: its node in `graph`; kInvalidNode for a detached slot.
  std::vector<topo::NodeId> node_of_slot;
};

inline HostGraph materialize_hosts(const topo::NetworkTopology& net) {
  HostGraph out{net.graph, std::vector<topo::NodeId>(net.hosts.size(),
                                                     topo::kInvalidNode)};
  for (std::size_t slot = 0; slot < net.hosts.size(); ++slot) {
    if (!net.hosts.attached(slot)) continue;
    const topo::NodeId node = out.graph.add_node();
    out.graph.add_edge(node, net.hosts.anchor[slot], net.hosts.access[slot]);
    out.node_of_slot[slot] = node;
  }
  return out;
}

}  // namespace tacc::test
