#include "topology/network.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "topology/shortest_paths.hpp"
#include "util/contracts.hpp"

namespace tacc::topo {

NodeId NetworkTopology::acquire_node(Point2D pos, NodeKind kind) {
  const NodeId node = graph.acquire_node(role_of(kind));
  if (node == positions.size()) {
    positions.push_back(pos);
    kinds.push_back(kind);
  } else {
    positions[node] = pos;
    kinds[node] = kind;
  }
  return node;
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
  TACC_CHECK_INVARIANT(kinds.size() == graph.node_count(),
                       "kinds must cover every graph node");
  TACC_CHECK_INVARIANT(
      std::count(kinds.begin(), kinds.end(), NodeKind::kRouter) ==
          static_cast<std::ptrdiff_t>(router_count()),
      "routers must be the id prefix of the graph");
  for (NodeId node = 0; node < graph.node_count(); ++node) {
    TACC_CHECK_INVARIANT(
        graph.is_leaf(node) == (kinds[node] == NodeKind::kIotDevice),
        "graph leaf flag disagrees with the node kind: " +
            std::to_string(node));
  }

  for (const NodeId node : edge_nodes) {
    TACC_CHECK_INVARIANT(node < graph.node_count(),
                         "edge server node out of range");
    TACC_CHECK_INVARIANT(!graph.node_released(node),
                         "edge server node is on the free list");
    TACC_CHECK_INVARIANT(kinds[node] == NodeKind::kEdgeServer,
                         "edge server node has the wrong kind");
  }
  for (const NodeId node : iot_nodes) {
    if (node == kInvalidNode) continue;  // detached device slot
    TACC_CHECK_INVARIANT(node < graph.node_count(),
                         "IoT device node out of range");
    TACC_CHECK_INVARIANT(!graph.node_released(node),
                         "IoT device node is on the free list");
    TACC_CHECK_INVARIANT(kinds[node] == NodeKind::kIotDevice,
                         "IoT device node has the wrong kind");
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
  net.kinds.assign(net.graph.node_count(), NodeKind::kRouter);

  const auto attach = [&](Point2D pos, NodeKind kind, auto link_model) {
    const NodeId node = net.graph.add_node(role_of(kind));
    net.positions.push_back(pos);
    net.kinds.push_back(kind);
    const NearestRouter access = nearest_router(infrastructure.positions, pos);
    net.graph.add_edge(node, access.router, link_model(access.distance_km));
    return node;
  };
  // Edge servers typically sit beside a router: wired attachment.
  for (const Point2D& pos : edge_positions) {
    net.edge_nodes.push_back(
        attach(pos, NodeKind::kEdgeServer, backbone_link));
  }
  for (const Point2D& pos : iot_positions) {
    net.iot_nodes.push_back(attach(pos, NodeKind::kIotDevice, access_link));
  }
  return net;
}

DelayMatrix compute_delay_matrix(const NetworkTopology& net) {
  DelayMatrix matrix(net.iot_count(), net.edge_count(), kUnreachable);
  // One Dijkstra per edge server — the hot precomputation when building
  // instances.
  const std::vector<ShortestPathTree> trees =
      dijkstra_fan_out(net.graph, net.edge_nodes, net.router_count());
  for (std::size_t j = 0; j < net.edge_count(); ++j) {
    for (std::size_t i = 0; i < net.iot_count(); ++i) {
      matrix.set(i, j, trees[j].distance_ms[net.iot_nodes[i]]);
    }
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
