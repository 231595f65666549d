// The deployed network: infrastructure graph plus attached IoT devices and
// edge servers, and the topology-aware delay matrix derived from it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "topology/delay_model.hpp"
#include "topology/generators.hpp"
#include "topology/geometry.hpp"
#include "topology/graph.hpp"

namespace tacc::topo {

enum class NodeKind : std::uint8_t { kRouter, kIotDevice, kEdgeServer };

/// IoT devices are the graph's leaves; routers and edge servers are relays
/// (an edge server's trees seed from its own link).
[[nodiscard]] constexpr NodeRole role_of(NodeKind kind) noexcept {
  return kind == NodeKind::kIotDevice ? NodeRole::kLeaf : NodeRole::kRelay;
}

/// Dense row-major matrix of IoT→edge values (delay in ms, or hop counts).
class DelayMatrix {
 public:
  DelayMatrix() = default;
  explicit DelayMatrix(std::size_t iot_count, std::size_t edge_count,
                       double fill = 0.0)
      : rows_(iot_count), cols_(edge_count), data_(iot_count * edge_count, fill) {}

  [[nodiscard]] std::size_t iot_count() const noexcept { return rows_; }
  [[nodiscard]] std::size_t edge_count() const noexcept { return cols_; }

  [[nodiscard]] double at(std::size_t iot, std::size_t edge) const {
    check(iot, edge);
    return data_[iot * cols_ + edge];
  }
  void set(std::size_t iot, std::size_t edge, double value) {
    check(iot, edge);
    data_[iot * cols_ + edge] = value;
  }

  /// Row view: all edge-server delays for one IoT device.
  [[nodiscard]] std::span<const double> row(std::size_t iot) const {
    if (iot >= rows_) throw std::out_of_range("DelayMatrix row out of range");
    return {data_.data() + iot * cols_, cols_};
  }

 private:
  void check(std::size_t iot, std::size_t edge) const {
    if (iot >= rows_ || edge >= cols_) {
      throw std::out_of_range("DelayMatrix index out of range");
    }
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// A link taken out of service in place, with the properties needed to put
/// it back. Endpoints are stored unordered (matched either way).
struct FailedLink {
  NodeId u = kInvalidNode;
  NodeId v = kInvalidNode;
  EdgeProps props;
};

/// Infrastructure + devices. IoT device k lives at graph node iot_nodes[k];
/// edge server j at edge_nodes[j].
struct NetworkTopology {
  Graph graph;
  std::vector<Point2D> positions;  ///< per graph node
  std::vector<NodeKind> kinds;     ///< per graph node
  std::vector<NodeId> iot_nodes;   ///< device index → node id
  std::vector<NodeId> edge_nodes;  ///< server index → node id
  std::vector<FailedLink> failed_links;  ///< links failed in place

  [[nodiscard]] std::size_t iot_count() const noexcept {
    return iot_nodes.size();
  }
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return edge_nodes.size();
  }
  [[nodiscard]] Point2D iot_position(std::size_t device) const {
    return positions.at(iot_nodes.at(device));
  }
  [[nodiscard]] Point2D edge_position(std::size_t server) const {
    return positions.at(edge_nodes.at(server));
  }
  /// Routers are the id prefix [0, router_count()): build_network adds them
  /// first, and only device ids are ever recycled. Every other node is a
  /// host (an IoT device or an edge server), which never relays traffic:
  /// pass this as dijkstra()'s `relays`.
  [[nodiscard]] std::size_t router_count() const noexcept {
    return static_cast<std::size_t>(
        std::find_if(kinds.begin(), kinds.end(),
                     [](NodeKind kind) { return kind != NodeKind::kRouter; }) -
        kinds.begin());
  }

  /// Acquires a graph node (recycling a released one when available) and
  /// records its position/kind. Callers wire the access links themselves.
  NodeId acquire_node(Point2D pos, NodeKind kind);
  /// Drops `node`'s access links and returns it to the graph's free list;
  /// its position/kind slots are reused by the next acquire_node().
  void release_node(NodeId node) { graph.release_node(node); }

  // ---- In-place link mutation (live topology churn) -----------------------
  // These mutate THIS network instead of copying it. Callers that maintain
  // derived state (delay matrices, shortest-path trees) should route
  // mutations through an incr::IncrementalDelayEngine so that state is
  // updated incrementally.

  /// Takes the u–v link out of service: removes the edge and records its
  /// properties on `failed_links` for restore_link(). Throws
  /// std::invalid_argument if no such link exists.
  EdgeProps fail_link(NodeId u, NodeId v);
  /// Puts a previously failed u–v link back with its recorded properties.
  /// Throws std::invalid_argument if the link is not in `failed_links`.
  EdgeProps restore_link(NodeId u, NodeId v);
  /// Rewrites the latency of a live u–v link in place; returns the previous
  /// properties. Throws std::invalid_argument if no such link exists or the
  /// latency is not positive.
  EdgeProps set_link_latency(NodeId u, NodeId v, double latency_ms);
  /// True iff u–v is currently recorded as failed.
  [[nodiscard]] bool link_failed(NodeId u, NodeId v) const noexcept;

  /// Deep validation, reported through the contracts failure handler:
  ///  - graph.check_invariants();
  ///  - positions/kinds cover every graph node, the routers are exactly
  ///    the id prefix [0, router_count()), and the graph's leaves are
  ///    exactly the IoT devices;
  ///  - edge_nodes are live kEdgeServer nodes; iot_nodes are live
  ///    kIotDevice nodes (kInvalidNode marks a detached device slot);
  ///  - failed-link bookkeeping matches the edge set: a recorded failed
  ///    link must NOT be present as a live edge (else restore_link would
  ///    double it), its endpoints must be valid, and its saved properties
  ///    restorable (positive latency).
  /// Cold path; meant for tests and sampled bench epochs.
  void check_invariants() const;
};

/// The router nearest to a point, and how far away it is.
struct NearestRouter {
  NodeId router = kInvalidNode;
  double distance_km = 0.0;
};

/// The nearest of `router_positions` (router r at index r) to `point`: the
/// first minimum under `<`. Router 0 at +inf when no distance compares
/// below +inf (a NaN or far-off point); callers that must reject such a
/// point check distance_km.
[[nodiscard]] NearestRouter nearest_router(
    std::span<const Point2D> router_positions, Point2D point);

/// Gives every server and device one access link, to its nearest router
/// (nearest_router()): servers a wired link, devices a wireless one.
/// Requires non-empty infra and at least one position in each span.
[[nodiscard]] NetworkTopology build_network(
    const GeoGraph& infrastructure, std::span<const Point2D> iot_positions,
    std::span<const Point2D> edge_positions);

/// Shortest-path delay (ms) from every IoT device to every edge server,
/// over paths that only routers relay (the no-relay model of dijkstra()).
/// Runs one Dijkstra per edge server (m << n in practice), one tree alive
/// at a time.
[[nodiscard]] DelayMatrix compute_delay_matrix(const NetworkTopology& net);

/// Straight-line distances (km); the *topology-oblivious* cost used by the
/// geometric-nearest baseline and the A1 ablation.
[[nodiscard]] DelayMatrix compute_euclidean_matrix(const NetworkTopology& net);

}  // namespace tacc::topo
