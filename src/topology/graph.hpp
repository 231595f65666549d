// Undirected weighted graph with adjacency-list storage.
//
// Nodes are dense indices [0, node_count). Each undirected edge is stored
// once per endpoint; latency is the routing metric (milliseconds), bandwidth
// feeds the discrete-event simulator's transmission-delay model.
//
// Nodes can be released back to a free list (release_node) and reused
// (acquire_node), so churny workloads — IoT devices joining, moving and
// leaving a deployed network — keep the node table at peak-population size
// instead of growing without bound. Released ids stay valid indices (their
// adjacency is empty and algorithms see them as isolated); ids are recycled
// LIFO.
//
// Adjacency layout. A node is a relay or a leaf, fixed when it is added or
// acquired. A leaf (an IoT device) ends paths and takes at most one link; a
// relay is anything else (a router, or an edge server, whose shortest-path
// trees seed from its own entries). Each list holds its relay entries first,
// in insertion order, then its leaf entries in no particular order, so
// relay_neighbors() is a prefix that path scans read without touching the
// leaf links. Each leaf records where its mirror entry sits in its one
// neighbor's list, which makes removing a leaf link O(1) (swap with the last
// entry) while relay order, and with it every parent tie-break, is kept.
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

/// A leaf only ends paths and takes at most one link; see the layout note.
enum class NodeRole : std::uint8_t { kRelay, kLeaf };

class Graph {
 public:
  Graph() = default;
  /// `node_count` isolated relay nodes.
  explicit Graph(std::size_t node_count)
      : adjacency_(node_count),
        relay_end_(node_count, 0),
        leaf_slot_(node_count, 0),
        released_(node_count, false),
        leaf_(node_count, false) {}

  [[nodiscard]] std::size_t node_count() const noexcept {
    return adjacency_.size();
  }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges_; }

  /// Appends a new isolated node and returns its id.
  NodeId add_node(NodeRole role = NodeRole::kRelay);

  /// Returns a ready-to-use node id: the most recently released node if any
  /// (LIFO), otherwise a freshly appended one. The node takes `role`.
  NodeId acquire_node(NodeRole role = NodeRole::kRelay);

  /// Removes every edge incident to `node` and pushes its id onto the free
  /// list for acquire_node(). Throws std::out_of_range for bad ids and
  /// std::invalid_argument if the node is already released.
  void release_node(NodeId node);

  [[nodiscard]] bool node_released(NodeId node) const {
    return released_.at(node);
  }
  [[nodiscard]] bool is_leaf(NodeId node) const { return leaf_.at(node); }
  /// Nodes currently on the free list.
  [[nodiscard]] std::size_t released_node_count() const noexcept {
    return free_list_.size();
  }
  /// Nodes in service (node_count() minus the free list).
  [[nodiscard]] std::size_t live_node_count() const noexcept {
    return adjacency_.size() - free_list_.size();
  }

  /// Adds an undirected edge u–v. Throws std::out_of_range for bad ids and
  /// std::invalid_argument for self-loops, non-positive latency, released
  /// endpoints, or a leaf endpoint that already has its link.
  void add_edge(NodeId u, NodeId v, EdgeProps props);

  /// Every incident edge: the relay entries, then the leaf entries.
  [[nodiscard]] std::span<const Adjacency> neighbors(NodeId node) const {
    return adjacency_.at(node);
  }
  /// The entries whose far end is a relay, in insertion order.
  [[nodiscard]] std::span<const Adjacency> relay_neighbors(
      NodeId node) const {
    return {adjacency_.at(node).data(), relay_end_[node]};
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

  /// Total latency-weighted size; useful as a quick structural fingerprint.
  [[nodiscard]] double total_latency() const noexcept;

  /// Deep structural validation, reported through the contracts failure
  /// handler (src/util/contracts.hpp):
  ///  - free list / live nodes are disjoint, with consistent bookkeeping
  ///    (every free-list id is marked released exactly once, released nodes
  ///    have empty adjacency);
  ///  - adjacency is symmetric: the k-th u->v entry mirrors the k-th v->u
  ///    entry with identical properties, and edge_count() matches;
  ///  - no self-loops, no edges touching released nodes, all latencies
  ///    positive;
  ///  - each relay prefix holds exactly the entries with a non-leaf far end,
  ///    no leaf has two links, and every leaf entry sits at the position its
  ///    leaf recorded.
  /// Cold path (O(V + E·deg)); meant for tests and sampled bench epochs.
  void check_invariants() const;

 private:
  friend struct GraphTestPeer;  ///< corruption hook for invariant tests
  static constexpr std::size_t kNoEntry = static_cast<std::size_t>(-1);

  /// Index of the first from->to entry in from's list, or kNoEntry: the
  /// recorded slot for a leaf `to`, else a scan of the relay prefix.
  [[nodiscard]] std::size_t entry_index(NodeId from, NodeId to) const;
  /// Adds `entry` to from's list: a relay entry at the end of the prefix
  /// (the first leaf entry moves to the back), a leaf entry at the back.
  void insert_entry(NodeId from, Adjacency entry);
  /// Drops from's entry at `index`, keeping the relay prefix in order.
  void erase_entry(NodeId from, std::size_t index);

  std::vector<std::vector<Adjacency>> adjacency_;
  std::vector<std::uint32_t> relay_end_;  ///< per node: relay prefix length
  std::vector<std::uint32_t> leaf_slot_;  ///< per linked leaf: its entry's
                                          ///< index in its neighbor's list
  std::vector<bool> released_;      ///< per node: on the free list?
  std::vector<bool> leaf_;          ///< per node: NodeRole::kLeaf?
  std::vector<NodeId> free_list_;   ///< released ids, reused LIFO
  std::size_t edges_ = 0;
};

}  // namespace tacc::topo
