#include "topology/failures.hpp"

#include <stdexcept>

#include "topology/shortest_paths.hpp"

namespace tacc::topo {

std::vector<LinkEndpoints> backbone_links(const NetworkTopology& net) {
  std::vector<LinkEndpoints> links;
  const std::size_t routers = net.router_count();
  for (NodeId u = 0; u < routers; ++u) {
    for (const Adjacency& adj : net.graph.neighbors(u)) {
      if (adj.to > u && adj.to < routers) {
        links.push_back({u, adj.to});
      }
    }
  }
  return links;
}

bool all_devices_served(const NetworkTopology& net) {
  // Multi-source BFS from all edge servers at once.
  std::vector<char> reached(net.graph.node_count(), 0);
  std::vector<NodeId> frontier;
  for (NodeId server : net.edge_nodes) {
    reached[server] = 1;
    frontier.push_back(server);
  }
  while (!frontier.empty()) {
    const NodeId node = frontier.back();
    frontier.pop_back();
    for (const Adjacency& adj : net.graph.neighbors(node)) {
      if (!reached[adj.to]) {
        reached[adj.to] = 1;
        frontier.push_back(adj.to);
      }
    }
  }
  // A device is served through its anchor router; detached slots hold none.
  for (std::size_t slot = 0; slot < net.hosts.size(); ++slot) {
    if (net.hosts.attached(slot) && reached[net.hosts.anchor[slot]] == 0) {
      return false;
    }
  }
  return true;
}

std::vector<LinkEndpoints> sample_failable_links(const NetworkTopology& net,
                                                 double fraction,
                                                 util::Rng& rng) {
  std::vector<LinkEndpoints> candidates = backbone_links(net);
  rng.shuffle(candidates);
  const auto budget = static_cast<std::size_t>(
      fraction * static_cast<double>(candidates.size()));

  NetworkTopology scratch = net;
  std::vector<LinkEndpoints> chosen;
  for (const LinkEndpoints& link : candidates) {
    if (chosen.size() >= budget) break;
    if (!scratch.graph.has_edge(link.first, link.second)) continue;
    // fail_link remembers the props, so a stranding failure is undone with
    // restore_link instead of hunting the original properties down.
    scratch.fail_link(link.first, link.second);
    if (all_devices_served(scratch)) {
      chosen.push_back(link);
    } else {
      scratch.restore_link(link.first, link.second);
    }
  }
  return chosen;
}

void fail_links(NetworkTopology& net,
                const std::vector<LinkEndpoints>& links) {
  for (const LinkEndpoints& link : links) {
    net.fail_link(link.first, link.second);
  }
}

void restore_links(NetworkTopology& net,
                   const std::vector<LinkEndpoints>& links) {
  for (auto it = links.rbegin(); it != links.rend(); ++it) {
    net.restore_link(it->first, it->second);
  }
}

}  // namespace tacc::topo
