#include "topology/network.hpp"

#include <limits>
#include <string>

#include "topology/shortest_paths.hpp"
#include "util/contracts.hpp"

namespace tacc::topo {

void HostTable::attach(std::size_t slot, NodeId router, EdgeProps link,
                       Point2D pos) {
  if (slot == anchor.size()) {
    anchor.push_back(router);
    access.push_back(link);
    position.push_back(pos);
    return;
  }
  anchor.at(slot) = router;
  access[slot] = link;
  position[slot] = pos;
}

void HostTable::reserve(std::size_t slots) {
  anchor.reserve(slots);
  access.reserve(slots);
  position.reserve(slots);
}

std::size_t HostTable::resident_bytes() const noexcept {
  return anchor.capacity() * sizeof(NodeId) +
         access.capacity() * sizeof(EdgeProps) +
         position.capacity() * sizeof(Point2D);
}

namespace {

[[nodiscard]] bool same_link(const FailedLink& link, NodeId u,
                             NodeId v) noexcept {
  return (link.u == u && link.v == v) || (link.u == v && link.v == u);
}

}  // namespace

EdgeProps NetworkTopology::fail_link(NodeId u, NodeId v) {
  const EdgeProps* props = graph.edge_props(u, v);
  if (props == nullptr) {
    throw std::invalid_argument(
        "NetworkTopology::fail_link: link does not exist");
  }
  const EdgeProps saved = *props;
  graph.remove_edge(u, v);
  failed_links.push_back({u, v, saved});
  return saved;
}

EdgeProps NetworkTopology::restore_link(NodeId u, NodeId v) {
  for (auto it = failed_links.begin(); it != failed_links.end(); ++it) {
    if (!same_link(*it, u, v)) continue;
    const EdgeProps props = it->props;
    // Re-add with the original endpoint order so restore is the exact
    // inverse of fail_link (edge direction is cosmetic; the graph is
    // undirected).
    graph.add_edge(it->u, it->v, props);
    failed_links.erase(it);
    return props;
  }
  throw std::invalid_argument(
      "NetworkTopology::restore_link: link is not failed");
}

EdgeProps NetworkTopology::set_link_latency(NodeId u, NodeId v,
                                            double latency_ms) {
  const EdgeProps* props = graph.edge_props(u, v);
  if (props == nullptr) {
    throw std::invalid_argument(
        "NetworkTopology::set_link_latency: link does not exist");
  }
  const EdgeProps previous = *props;
  if (!graph.set_edge_latency(u, v, latency_ms)) {
    throw std::invalid_argument(
        "NetworkTopology::set_link_latency: link does not exist");
  }
  return previous;
}

bool NetworkTopology::link_failed(NodeId u, NodeId v) const noexcept {
  for (const FailedLink& link : failed_links) {
    if (same_link(link, u, v)) return true;
  }
  return false;
}

void NetworkTopology::check_invariants() const {
  graph.check_invariants();
  TACC_CHECK_INVARIANT(positions.size() == graph.node_count(),
                       "positions must cover every graph node");
  TACC_CHECK_INVARIANT(edge_nodes.size() <= graph.node_count(),
                       "more edge servers than graph nodes");
  const std::size_t routers = router_count();
  for (std::size_t j = 0; j < edge_nodes.size(); ++j) {
    TACC_CHECK_INVARIANT(edge_nodes[j] == routers + j,
                         "edge servers must be the graph's id suffix, in "
                         "order: server " +
                             std::to_string(j));
  }

  TACC_CHECK_INVARIANT(hosts.access.size() == hosts.size() &&
                           hosts.position.size() == hosts.size(),
                       "host table arrays must stay parallel");
  for (std::size_t slot = 0; slot < hosts.size(); ++slot) {
    if (!hosts.attached(slot)) continue;
    TACC_CHECK_INVARIANT(hosts.anchor[slot] < routers,
                         "device anchored off the routers: slot " +
                             std::to_string(slot));
    TACC_CHECK_INVARIANT(hosts.access[slot].latency_ms > 0.0,
                         "device access link with non-positive latency: "
                         "slot " +
                             std::to_string(slot));
  }

  // Failed-link bookkeeping vs the live edge set. Pairs recorded more than
  // once (possible with parallel links) are skipped for the absence check:
  // one instance may legitimately still be live.
  for (std::size_t a = 0; a < failed_links.size(); ++a) {
    const FailedLink& link = failed_links[a];
    TACC_CHECK_INVARIANT(
        link.u < graph.node_count() && link.v < graph.node_count(),
        "failed link endpoint out of range");
    TACC_CHECK_INVARIANT(link.props.latency_ms > 0.0,
                         "failed link saved with non-positive latency");
    bool duplicated = false;
    for (std::size_t b = 0; b < failed_links.size(); ++b) {
      if (b != a && same_link(failed_links[b], link.u, link.v)) {
        duplicated = true;
        break;
      }
    }
    TACC_CHECK_INVARIANT(
        duplicated || !graph.has_edge(link.u, link.v),
        "link recorded as failed but still present in the graph: " +
            std::to_string(link.u) + "-" + std::to_string(link.v));
  }
}

NearestRouter nearest_router(std::span<const Point2D> router_positions,
                             Point2D point) {
  NearestRouter nearest{0, std::numeric_limits<double>::infinity()};
  for (NodeId r = 0; r < router_positions.size(); ++r) {
    const double d = euclidean_distance(router_positions[r], point);
    if (d < nearest.distance_km) nearest = {r, d};
  }
  return nearest;
}

NetworkTopology build_network(const GeoGraph& infrastructure,
                              std::span<const Point2D> iot_positions,
                              std::span<const Point2D> edge_positions) {
  if (infrastructure.graph.node_count() == 0) {
    throw std::invalid_argument("build_network: empty infrastructure");
  }
  if (iot_positions.empty() || edge_positions.empty()) {
    throw std::invalid_argument(
        "build_network: need at least one IoT device and one edge server");
  }

  NetworkTopology net;
  net.graph = infrastructure.graph;
  net.positions = infrastructure.positions;
  // Edge servers typically sit beside a router: wired attachment.
  for (const Point2D& pos : edge_positions) {
    const NodeId node = net.graph.add_node();
    net.positions.push_back(pos);
    const NearestRouter access = nearest_router(infrastructure.positions, pos);
    net.graph.add_edge(node, access.router, backbone_link(access.distance_km));
    net.edge_nodes.push_back(node);
  }
  net.hosts.reserve(iot_positions.size());
  for (std::size_t k = 0; k < iot_positions.size(); ++k) {
    const NearestRouter access =
        nearest_router(infrastructure.positions, iot_positions[k]);
    net.hosts.attach(k, access.router, access_link(access.distance_km),
                     iot_positions[k]);
  }
  return net;
}

DelayMatrix compute_delay_matrix(const NetworkTopology& net) {
  const std::size_t routers = net.router_count();
  const std::size_t servers = net.edge_count();
  // One no-relay Dijkstra per edge server — the hot precomputation when
  // building instances — kept as router-major columns: router r's delays
  // to every server at [r * servers, (r + 1) * servers).
  std::vector<double> columns(routers * servers);
  for (std::size_t j = 0; j < servers; ++j) {
    const ShortestPathTree tree =
        dijkstra(net.graph, net.edge_nodes[j], routers);
    for (std::size_t r = 0; r < routers; ++r) {
      columns[r * servers + j] = tree.distance_ms[r];
    }
  }
  // A device's entry is the sum the no-relay Dijkstra relaxes into it from
  // its anchor, so the matrix is bit-identical to a tree that holds it.
  DelayMatrix matrix(net.iot_count(), servers, kUnreachable);
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    if (!net.hosts.attached(i)) continue;
    const double latency = net.hosts.access[i].latency_ms;
    const double* column = &columns[net.hosts.anchor[i] * servers];
    const std::span<double> row = matrix.row(i);
    for (std::size_t j = 0; j < servers; ++j) row[j] = column[j] + latency;
  }
  return matrix;
}

DelayMatrix compute_euclidean_matrix(const NetworkTopology& net) {
  DelayMatrix matrix(net.iot_count(), net.edge_count(), 0.0);
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    for (std::size_t j = 0; j < net.edge_count(); ++j) {
      matrix.set(i, j,
                 euclidean_distance(net.iot_position(i),
                                    net.edge_position(j)));
    }
  }
  return matrix;
}

}  // namespace tacc::topo
