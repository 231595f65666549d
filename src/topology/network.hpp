// The deployed network: the router graph with its edge servers, the IoT
// devices in a flat host table beside it, and the topology-aware delay
// matrix derived from them.
//
// In the paper's model only routers relay: the delay from device i to
// server j is a shortest path whose inner nodes are routers. Every device
// hangs off one anchor router through its access link, so that delay is
// dist_j(anchor(i)) + latency_i, and a device needs no graph node at all.
// The graph holds the routers (the id prefix [0, router_count())) and then
// the edge servers, which stay nodes because each server's tree seeds from
// its own access link. The devices live in HostTable, slot k holding device
// k, and joining, moving or leaving writes one slot.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "topology/delay_model.hpp"
#include "topology/generators.hpp"
#include "topology/geometry.hpp"
#include "topology/graph.hpp"

namespace tacc::topo {

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
  [[nodiscard]] std::span<double> row(std::size_t iot) {
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

/// The IoT devices, off the graph, as a struct of arrays: slot k is device
/// k. An attached slot names its anchor router and its access link to it; a
/// detached slot's anchor is kInvalidNode.
struct HostTable {
  std::vector<NodeId> anchor;     ///< per slot: access router
  std::vector<EdgeProps> access;  ///< per slot: the access link
  std::vector<Point2D> position;  ///< per slot

  [[nodiscard]] std::size_t size() const noexcept { return anchor.size(); }
  [[nodiscard]] bool attached(std::size_t slot) const noexcept {
    return slot < anchor.size() && anchor[slot] != kInvalidNode;
  }
  /// Attaches `slot` (appending it when slot == size()) to `router`.
  void attach(std::size_t slot, NodeId router, EdgeProps link, Point2D pos);
  /// Marks `slot` detached; its storage is reused by the next attach.
  void detach(std::size_t slot) { anchor.at(slot) = kInvalidNode; }
  void reserve(std::size_t slots);
  /// Bytes held by the three arrays (their capacities).
  [[nodiscard]] std::size_t resident_bytes() const noexcept;
};

/// The router graph, its edge servers and the devices. Edge server j is
/// graph node edge_nodes[j]; IoT device k is host slot k.
struct NetworkTopology {
  Graph graph;  ///< routers [0, router_count()), then the edge servers
  std::vector<Point2D> positions;  ///< per graph node
  std::vector<NodeId> edge_nodes;  ///< server index → node id
  HostTable hosts;                 ///< device index → host slot
  std::vector<FailedLink> failed_links;  ///< links failed in place

  [[nodiscard]] std::size_t iot_count() const noexcept {
    return hosts.size();
  }
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return edge_nodes.size();
  }
  [[nodiscard]] Point2D iot_position(std::size_t device) const {
    return hosts.position.at(device);
  }
  [[nodiscard]] Point2D edge_position(std::size_t server) const {
    return positions.at(edge_nodes.at(server));
  }
  /// Routers are the id prefix [0, router_count()): build_network adds the
  /// edge servers after them. Servers never relay traffic: pass this as
  /// dijkstra()'s `relays`.
  [[nodiscard]] std::size_t router_count() const noexcept {
    return graph.node_count() - edge_nodes.size();
  }

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
  ///  - positions cover every graph node, and edge_nodes are the graph's
  ///    id suffix after the routers, in order;
  ///  - the host table's arrays stay parallel, and every attached slot
  ///    anchors at a router through a positive-latency access link;
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
/// (nearest_router()): servers a wired link as a graph node, devices a
/// wireless one in the host table. Requires non-empty infra and at least
/// one position in each span.
[[nodiscard]] NetworkTopology build_network(
    const GeoGraph& infrastructure, std::span<const Point2D> iot_positions,
    std::span<const Point2D> edge_positions);

/// Shortest-path delay (ms) from every IoT device to every edge server,
/// over paths that only routers relay (the no-relay model of dijkstra()):
/// dist_j(anchor) + access latency, kUnreachable for a detached slot.
/// Runs one Dijkstra per edge server (m << n in practice) into router-major
/// columns, then fills each device row from its anchor's column.
[[nodiscard]] DelayMatrix compute_delay_matrix(const NetworkTopology& net);

/// Straight-line distances (km); the *topology-oblivious* cost used by the
/// geometric-nearest baseline and the A1 ablation.
[[nodiscard]] DelayMatrix compute_euclidean_matrix(const NetworkTopology& net);

}  // namespace tacc::topo
