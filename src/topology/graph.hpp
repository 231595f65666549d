// Undirected weighted graph with adjacency-list storage.
//
// Nodes are dense indices [0, node_count). Each undirected edge is stored
// once per endpoint; latency is the routing metric (milliseconds), bandwidth
// feeds the discrete-event simulator's transmission-delay model.
//
// A deployed network keeps only its routers and edge servers here; IoT
// devices live off the graph in NetworkTopology's host table, so every
// entry of every list is a link a path may take. Each list keeps its
// entries in insertion order (a removal closes the gap), which fixes every
// parent tie-break of the shortest-path trees.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace tacc::topo {

using NodeId = std::uint32_t;
constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

struct EdgeProps {
  double latency_ms = 1.0;       ///< one-way propagation + forwarding cost
  double bandwidth_mbps = 100.0; ///< capacity for transmission delay
};

struct Adjacency {
  NodeId to = kInvalidNode;
  EdgeProps props;
};

class Graph {
 public:
  Graph() = default;
  /// `node_count` isolated nodes.
  explicit Graph(std::size_t node_count) : adjacency_(node_count) {}

  [[nodiscard]] std::size_t node_count() const noexcept {
    return adjacency_.size();
  }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges_; }

  /// Appends a new isolated node and returns its id.
  NodeId add_node();

  /// Adds an undirected edge u–v. Throws std::out_of_range for bad ids and
  /// std::invalid_argument for self-loops or non-positive latency.
  void add_edge(NodeId u, NodeId v, EdgeProps props);

  /// Every incident edge, in insertion order.
  [[nodiscard]] std::span<const Adjacency> neighbors(NodeId node) const {
    return adjacency_.at(node);
  }

  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  /// Properties of the first u–v edge, or nullptr if absent. The pointer is
  /// invalidated by any mutation of u's adjacency.
  [[nodiscard]] const EdgeProps* edge_props(NodeId u, NodeId v) const;

  /// Removes one undirected edge u–v (the first match if parallel edges
  /// exist). Returns false if no such edge. Supports failure injection.
  bool remove_edge(NodeId u, NodeId v);

  /// Rewrites the latency of the first u–v edge in place (both mirror
  /// entries). Returns false if no such edge; throws std::invalid_argument
  /// for non-positive latency. Supports live link reweighting.
  bool set_edge_latency(NodeId u, NodeId v, double latency_ms);

  /// Degree of `node` (number of incident undirected edges).
  [[nodiscard]] std::size_t degree(NodeId node) const {
    return adjacency_.at(node).size();
  }

  /// Deep structural validation, reported through the contracts failure
  /// handler (src/util/contracts.hpp): adjacency is symmetric (the k-th
  /// u->v entry mirrors the k-th v->u entry with identical properties, and
  /// edge_count() matches), with no self-loops and all latencies positive.
  /// Cold path (O(V + E·deg)); meant for tests and sampled bench epochs.
  void check_invariants() const;

 private:
  friend struct GraphTestPeer;  ///< corruption hook for invariant tests
  static constexpr std::size_t kNoEntry = static_cast<std::size_t>(-1);

  /// Index of the first from->to entry in from's list, or kNoEntry.
  [[nodiscard]] std::size_t entry_index(NodeId from, NodeId to) const;

  std::vector<std::vector<Adjacency>> adjacency_;
  std::size_t edges_ = 0;
};

}  // namespace tacc::topo
