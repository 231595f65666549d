// IncrementalDelayEngine: keeps one DynamicSsspTree per edge server in sync
// with in-place mutations of a live NetworkTopology.
//
// The engine owns the mutation path: callers fail/restore/reweight backbone
// links and attach/detach device nodes through it, and it forwards each
// change to every server tree (cost O(affected region) per tree, not a full
// recompute). Nodes whose server distances changed accumulate in a dirty set
// that the delay oracle (topology/oracle/) drains to refresh exactly the
// rows that moved. Distances read through delay_ms()/delay_row() are
// bit-identical to a from-scratch compute_delay_matrix() at every epoch (see
// dynamic_sssp.hpp).
//
// Pendants. A single-homed device — an IoT node with exactly one link, to a
// node that is not itself a pendant — is never held by the trees: its delay
// is served as dist_j(anchor) + w, the anchor's tree distance plus the
// access latency, which is exactly the value a tree would store. The trees
// therefore hold only the backbone (routers, servers, multi-homed devices):
// a backbone repair settles and heap-orders backbone nodes only, a device
// costs a neighbour scan one mask byte, and attaching, detaching or
// reweighting a pendant's access link touches no tree at all. When a repair
// moves an anchor, each of its pendants costs one compare: it is dirty iff
// old + w != new + w in some tree, so the dirty set is exactly the set of
// nodes whose served delay changed. A pendant that gains a second link is
// promoted into the trees (seeded from its anchor, then repaired like any
// insertion); a promoted device stays in the trees until rebuild()
// reclassifies.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "topology/incremental/dynamic_sssp.hpp"
#include "topology/network.hpp"

namespace tacc::topo::incr {

/// Cumulative counters; `epoch` bumps on every distance-relevant mutation,
/// so equal epochs imply identical tree state.
struct EngineStats {
  std::uint64_t epoch = 0;
  std::uint64_t link_updates = 0;    ///< fail/restore/set_latency calls
  /// Σ per-tree affected-region sizes: tree nodes examined, so pendants
  /// (and pendant access-link events) count nothing.
  std::uint64_t nodes_affected = 0;
  /// Full-recompute node visits avoided (a full recompute settles every
  /// live node, pendants included, once per tree).
  std::uint64_t nodes_saved = 0;
};

/// Observer for the engine's mutation funnel. Listeners are notified AFTER
/// the graph and every server tree reflect the mutation (the same contract
/// DynamicSsspTree's update hooks have with the graph), so a listener can
/// repair its own derived structures against the post-mutation graph.
/// `kind` matches apply_mutation: 0 edge added, 1 removed, 2 reweighted;
/// old_ms/new_ms are the link latency before/after (kUnreachable when
/// absent; remove_link reports no old latency). Every mutation is reported,
/// pendant access links included.
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

/// The tree node a node's delays read through, and the latency added to
/// its tree distances: see IncrementalDelayEngine::read_through().
struct ReadThrough {
  NodeId node = kInvalidNode;
  double latency_ms = 0.0;
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
    if (is_pendant(node)) {
      const PendantLink& link = pendant_link_[node];
      return trees_[server].distance_ms(link.anchor) + link.latency_ms;
    }
    return trees_[server].distance_ms(node);
  }
  /// delay_ms(j, node) for every server j into `out` (size server_count()),
  /// resolving a pendant's anchor once for the whole row.
  void delay_row(NodeId node, std::span<double> out) const;
  /// True iff `node` is a pendant (served from its anchor, not the trees).
  [[nodiscard]] bool is_pendant(NodeId node) const noexcept {
    return node < pendant_.size() && pendant_[node] != 0;
  }
  /// A pendant reads through its anchor at its access latency; any other
  /// node reads through itself at latency 0. delay_ms(j, node) equals
  /// distance_j(through.node) + through.latency_ms bitwise, since adding
  /// +0.0 to a non-negative distance changes no bit.
  [[nodiscard]] ReadThrough read_through(NodeId node) const noexcept {
    if (!is_pendant(node)) return {node, 0.0};
    return {pendant_link_[node].anchor, pendant_link_[node].latency_ms};
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

  /// Appends the nodes whose read_through() changed since the last drain,
  /// clears the list and returns the count: a pendant promoted into the
  /// trees, isolated by its link's removal or given a new access latency,
  /// and a device that became a pendant; rebuild() reports every node.
  /// Their served delay may not have moved, so the dirty set need not hold
  /// them; a row store keyed by read_through() re-resolves them. Each node
  /// appears once, so an undrained list holds at most one entry per node.
  std::size_t drain_reclassified(std::vector<NodeId>& out);

  /// Deep validation, reported through the contracts failure handler:
  ///  - one tree per edge server, rooted at that server's node, sized to
  ///    the graph;
  ///  - dirty-set bookkeeping (dirty list and membership bitmap agree);
  ///  - pendants: each is an IoT device with one link, to the recorded
  ///    anchor at the recorded latency, whose neighbour is not a pendant,
  ///    and no tree holds a distance for it;
  ///  - exactness spot-check: up to `spot_check_trees` servers (rotated by
  ///    epoch so successive calls cover different servers) have delay_ms()
  ///    of every node, pendants included, compared bit-for-bit against a
  ///    from-scratch Dijkstra on the live graph — the Ramalingam–Reps-style
  ///    repair must be indistinguishable from a full recompute.
  /// Cold path (each spot check is one Dijkstra); for tests and sampled
  /// bench epochs.
  void check_invariants(std::size_t spot_check_trees = 1) const;

  /// From-scratch reconstruction of every tree (and dirties every node),
  /// reclassifying pendants. Recovery hatch for out-of-band topology edits;
  /// also used by tests.
  void rebuild();

  /// Scratch bytes across all trees plus the dirty set, the reclassified
  /// list, the pendant mask, links and event stamps, and the per-update
  /// change log — the bench's
  /// flat-memory gate watches this across 100k+ events.
  [[nodiscard]] std::size_t scratch_bytes() const noexcept;

  // ---- Mutation listeners --------------------------------------------------
  /// Registers `listener` for post-mutation notifications (not owned; must
  /// outlive its registration — remove_listener() before destruction).
  void add_listener(MutationListener* listener);
  void remove_listener(MutationListener* listener) noexcept;

 private:
  /// Classifies pendants on the live graph and builds every tree.
  void build_trees();
  /// Grows per-tree arrays, the per-node pendant arrays and the dirty
  /// bitmap to the graph's node count.
  void sync_node_count();
  /// Promotes whichever endpoint of the just-added u–v link was a pendant,
  /// then returns the endpoint the link made a pendant (kInvalidNode if
  /// none).
  NodeId classify_added_link(NodeId u, NodeId v);
  void set_pendant(NodeId node, const Adjacency& link);
  void clear_pendant(NodeId node);
  void mark_dirty(NodeId node);
  void mark_reclassified(NodeId node);
  /// Applies one already-performed graph mutation: a pendant's access link
  /// only dirties the pendant; any other link repairs every tree and
  /// dirties the changed tree nodes plus their pendants whose delay moved.
  /// kind: 0 added, 1 removed, 2 reweighted; old_ms/new_ms as reported to
  /// listeners.
  void apply_mutation(int kind, NodeId u, NodeId v, double old_ms,
                      double new_ms);

  NetworkTopology* net_;
  std::size_t threads_;
  std::vector<DynamicSsspTree> trees_;  ///< trees_[j] rooted at edge_nodes[j]
  /// A pendant's one link, as the engine last applied it.
  struct PendantLink {
    NodeId anchor = kInvalidNode;
    double latency_ms = 0.0;
  };
  std::vector<std::uint8_t> pendant_;       ///< per node: a pendant?
  std::vector<PendantLink> pendant_link_;  ///< per node, valid if pendant
  EngineStats stats_;

  std::vector<NodeId> dirty_;
  std::vector<std::uint8_t> in_dirty_;  ///< per node: already in dirty_?
  std::vector<NodeId> reclassified_;
  std::vector<std::uint8_t> in_reclassified_;  ///< per node: listed?
  std::vector<DistanceChange> changes_;  ///< one tree's change log
  /// Per node: the event (epoch + 1) in which all its pendants were found
  /// dirty, so later trees of that event skip scanning them again.
  std::vector<std::uint64_t> pendants_dirty_in_;
  std::vector<MutationListener*> listeners_;
};

}  // namespace tacc::topo::incr
