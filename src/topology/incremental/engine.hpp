// IncrementalDelayEngine: keeps one DynamicSsspTree per edge server in sync
// with in-place mutations of a live NetworkTopology.
//
// The engine owns the mutation path: callers fail/restore/reweight backbone
// links and attach/detach device nodes through it, and it forwards each
// change to every server tree (cost O(affected region) per tree, not a full
// recompute). Nodes whose server distances changed accumulate in a dirty set
// that the delay oracle (topology/oracle/) drains to refresh exactly the
// rows that moved. Distances read from the trees are bit-identical to a from-scratch
// compute_delay_matrix() at every epoch (see dynamic_sssp.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "topology/incremental/dynamic_sssp.hpp"
#include "topology/network.hpp"

namespace tacc::topo::incr {

/// Cumulative counters; `epoch` bumps on every distance-relevant mutation,
/// so equal epochs imply identical tree state.
struct EngineStats {
  std::uint64_t epoch = 0;
  std::uint64_t link_updates = 0;    ///< fail/restore/set_latency calls
  std::uint64_t nodes_affected = 0;  ///< Σ per-tree affected-region sizes
  std::uint64_t nodes_saved = 0;     ///< full-recompute node visits avoided
};

/// Observer for the engine's mutation funnel. Listeners are notified AFTER
/// the graph and every server tree reflect the mutation (the same contract
/// DynamicSsspTree's update hooks have with the graph), so a listener can
/// repair its own derived structures against the post-mutation graph.
/// `kind` matches apply_to_trees: 0 edge added, 1 removed, 2 reweighted.
/// Used by the landmark delay oracle to keep its landmark distance vectors
/// in sync with link churn (see topology/oracle/landmark.hpp).
class MutationListener {
 public:
  virtual ~MutationListener() = default;
  virtual void on_mutation(int kind, NodeId u, NodeId v, double old_ms,
                           double new_ms) = 0;
  /// The engine rebuilt every tree from scratch (recovery hatch).
  virtual void on_rebuild() = 0;
};

class IncrementalDelayEngine {
 public:
  /// Builds one shortest-path tree per edge server of `net` (`threads`
  /// spreads the initial Dijkstra runs; updates are serial). The engine
  /// keeps a pointer to `net` — it must outlive the engine and all
  /// mutations must go through the engine or be followed by rebuild().
  explicit IncrementalDelayEngine(NetworkTopology& net,
                                  std::size_t threads = 1);

  [[nodiscard]] const NetworkTopology& network() const noexcept {
    return *net_;
  }
  [[nodiscard]] std::size_t server_count() const noexcept {
    return trees_.size();
  }
  /// Delay (ms) from edge server `server` (index into net.edge_nodes) to
  /// any graph node; kUnreachable if disconnected.
  [[nodiscard]] double delay_ms(std::size_t server, NodeId node) const {
    return trees_[server].distance_ms(node);
  }
  [[nodiscard]] const DynamicSsspTree& tree(std::size_t server) const {
    return trees_.at(server);
  }
  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint64_t epoch() const noexcept { return stats_.epoch; }

  // ---- Backbone link churn (the LINK_* wire verbs) -------------------------
  // Each delegates to the NetworkTopology mutator, then repairs every server
  // tree incrementally. Throws what the topology mutator throws; on throw
  // nothing has changed.
  EdgeProps fail_link(NodeId u, NodeId v);
  EdgeProps restore_link(NodeId u, NodeId v);
  EdgeProps set_link_latency(NodeId u, NodeId v, double latency_ms);

  // ---- Device churn (joins / moves / leaves) -------------------------------
  /// NetworkTopology::acquire_node + tree growth; the node starts isolated.
  NodeId acquire_node(Point2D pos, NodeKind kind);
  /// Graph::add_edge + incremental tree repair.
  void add_link(NodeId u, NodeId v, EdgeProps props);
  /// Graph::remove_edge + incremental tree repair. False if no such edge.
  bool remove_link(NodeId u, NodeId v);
  /// Removes every incident edge (repairing trees per edge), then returns
  /// the node to the topology's free list.
  void release_node(NodeId node);

  // ---- Dirty set -----------------------------------------------------------
  /// Nodes whose distance to some server changed since the last drain.
  [[nodiscard]] std::size_t dirty_count() const noexcept {
    return dirty_.size();
  }
  /// Appends the dirty nodes to `out`, clears the set, returns the count.
  std::size_t drain_dirty(std::vector<NodeId>& out);

  /// True iff `node` is currently in the dirty set (distance changed since
  /// the last drain). Used by ExactOracle::check_invariants to prove stale
  /// rows are excused by dirtiness.
  [[nodiscard]] bool is_dirty(NodeId node) const noexcept {
    return node < in_dirty_.size() && in_dirty_[node] != 0;
  }

  /// Deep validation, reported through the contracts failure handler:
  ///  - one tree per edge server, rooted at that server's node, sized to
  ///    the graph;
  ///  - dirty-set bookkeeping (dirty list and membership bitmap agree);
  ///  - exactness spot-check: up to `spot_check_trees` trees (rotated by
  ///    epoch so successive calls cover different servers) are compared
  ///    bit-for-bit against a from-scratch Dijkstra on the live graph —
  ///    the Ramalingam–Reps-style repair must be indistinguishable from a
  ///    full recompute.
  /// Cold path (each spot check is one Dijkstra); for tests and sampled
  /// bench epochs.
  void check_invariants(std::size_t spot_check_trees = 1) const;

  /// From-scratch reconstruction of every tree (and dirties every node).
  /// Recovery hatch for out-of-band topology edits; also used by tests.
  void rebuild();

  /// Scratch bytes across all trees plus the dirty set — the bench's
  /// flat-memory gate watches this across 100k+ events.
  [[nodiscard]] std::size_t scratch_bytes() const noexcept;

  // ---- Mutation listeners --------------------------------------------------
  /// Registers `listener` for post-mutation notifications (not owned; must
  /// outlive its registration — remove_listener() before destruction).
  void add_listener(MutationListener* listener);
  void remove_listener(MutationListener* listener) noexcept;

 private:
  /// Grows per-tree arrays and the dirty bitmap to the graph's node count.
  void sync_node_count();
  /// Applies one already-performed graph mutation to every tree and folds
  /// the changed nodes into the dirty set. kind: 0 added, 1 removed,
  /// 2 reweighted.
  void apply_to_trees(int kind, NodeId u, NodeId v, double old_ms,
                      double new_ms);

  NetworkTopology* net_;
  std::size_t threads_;
  std::vector<DynamicSsspTree> trees_;  ///< trees_[j] rooted at edge_nodes[j]
  EngineStats stats_;

  std::vector<NodeId> dirty_;
  std::vector<std::uint8_t> in_dirty_;  ///< per node: already in dirty_?
  std::vector<NodeId> changed_scratch_;
  std::vector<MutationListener*> listeners_;
};

}  // namespace tacc::topo::incr
