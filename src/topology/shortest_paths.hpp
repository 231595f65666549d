// Shortest-path primitives over the latency metric.
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "topology/graph.hpp"

namespace tacc::topo {

constexpr double kUnreachable = std::numeric_limits<double>::infinity();

/// Result of a single-source run: distance (ms) and predecessor per node.
struct ShortestPathTree {
  std::vector<double> distance_ms;  ///< kUnreachable if disconnected
  std::vector<NodeId> parent;       ///< kInvalidNode for source/unreached

  /// Reconstructs source→target as a node sequence; empty if unreachable.
  [[nodiscard]] std::vector<NodeId> path_to(NodeId target) const;
};

/// `relays` value under which every node relays (plain Dijkstra).
constexpr std::size_t kEveryNodeRelays =
    std::numeric_limits<std::size_t>::max();

/// Dijkstra with a binary heap; O((V+E) log V). Only the source and the
/// nodes with an id below `relays` are expanded: any other node is settled
/// by the relaxation that reaches it but forwards no path, and never enters
/// the heap, so a no-relay tree heaps O(relays) entries however many hosts
/// hang off them. Passing a NetworkTopology's router_count() gives the
/// no-relay model, in which hosts (devices and servers) never relay.
/// Ties pop in (distance, id) order, so the heap's contents do not change
/// which parent a node keeps.
[[nodiscard]] ShortestPathTree dijkstra(
    const Graph& graph, NodeId source,
    std::size_t relays = kEveryNodeRelays);

/// Hop counts (BFS), ignoring latencies. SIZE_MAX-like sentinel via
/// kUnreachableHops for disconnected nodes.
constexpr std::uint32_t kUnreachableHops =
    std::numeric_limits<std::uint32_t>::max();
[[nodiscard]] std::vector<std::uint32_t> bfs_hops(const Graph& graph,
                                                  NodeId source);

/// All-pairs distances via repeated Dijkstra; row-major [source][target].
/// Intended for tests and small graphs (O(V·E log V)).
[[nodiscard]] std::vector<std::vector<double>> all_pairs_distances(
    const Graph& graph);

/// Runs dijkstra() from every node in `sources` with the same `relays`;
/// result[k] corresponds to sources[k]. This is the hot precomputation
/// path when building delay matrices.
[[nodiscard]] std::vector<ShortestPathTree> dijkstra_fan_out(
    const Graph& graph, std::span<const NodeId> sources,
    std::size_t relays = kEveryNodeRelays);

/// Floyd–Warshall reference implementation (O(V^3)); used by tests to
/// cross-check Dijkstra.
[[nodiscard]] std::vector<std::vector<double>> floyd_warshall(
    const Graph& graph);

/// True iff every node is reachable from node 0 (or graph is empty).
[[nodiscard]] bool is_connected(const Graph& graph);

/// Connected components as a label per node (labels are dense from 0).
[[nodiscard]] std::vector<std::uint32_t> connected_components(
    const Graph& graph);

}  // namespace tacc::topo
