// IncrementalDelayEngine: keeps one DynamicSsspTree per edge server in sync
// with in-place mutations of a live NetworkTopology.
//
// The engine owns the mutation path: callers fail/restore/reweight backbone
// links and attach/detach devices through it, and it forwards each link
// change to every server tree (cost O(affected region) per tree, not a full
// recompute). Routers whose server distances a repair moved accumulate in a
// dirty set that the delay oracle (topology/oracle/) drains to refresh
// exactly the key rows that moved. Distances read through delay_ms() and
// delay_row() are bit-identical to a from-scratch no-relay Dijkstra at
// every epoch (see dynamic_sssp.hpp).
//
// Hosts never relay. The paper's delay graph has devices at its leaves and
// relay nodes (routers) inside it, so the engine's trees hold routers only
// (the id prefix [0, router_count())). An IoT device is no graph node at
// all: it is a host-table slot naming its anchor router and access link,
// and its delay to server j is delay_ms(j, anchor) + access latency, which
// its consumer (the delay oracle) adds. Attaching or detaching a device is
// a host-table write that touches no tree and dirties nothing; whoever
// makes it rebinds the device's delay row afterwards (DelayOracle::
// bind_row), as DynamicCluster does on every join, move and leave. A
// backbone repair therefore settles and heap-orders routers only, and a
// link event costs O(moved routers x servers) however many devices hang
// off the moved routers. Edge servers stay graph nodes, since each tree
// seeds from its server's access link; a server's access link moves its
// own tree, and the routers that repair moves are dirtied as usual.
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
  /// Σ per-tree affected-region sizes: routers examined, so device churn
  /// counts nothing.
  std::uint64_t nodes_affected = 0;
  /// Full-recompute node visits avoided by link updates (a full recompute
  /// settles every router once per tree).
  std::uint64_t nodes_saved = 0;
};

class IncrementalDelayEngine {
 public:
  /// Builds one routers-only shortest-path tree per edge server of `net`.
  /// The engine keeps a pointer to `net` — it must outlive the engine and
  /// all mutations must go through the engine or be followed by rebuild().
  explicit IncrementalDelayEngine(NetworkTopology& net);

  [[nodiscard]] const NetworkTopology& network() const noexcept {
    return *net_;
  }
  [[nodiscard]] std::size_t server_count() const noexcept {
    return trees_.size();
  }
  /// Delay (ms) from edge server `server` (index into net.edge_nodes) to
  /// router `router`; kUnreachable if disconnected.
  [[nodiscard]] double delay_ms(std::size_t server, NodeId router) const {
    return trees_[server].distance_ms(router);
  }
  /// delay_ms(j, router) for every server j into `out` (size
  /// server_count()): a device's key row, to which it adds its latency.
  void delay_row(NodeId router, std::span<double> out) const;
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
  /// HostTable::attach of device `slot` to `router` (appending the slot
  /// when it is the table's size). No tree moves and nothing is dirtied,
  /// but the epoch advances: the device's delays changed.
  void attach_host(std::size_t slot, NodeId router, EdgeProps access,
                   Point2D position);
  /// HostTable::detach of device `slot`; advances the epoch likewise.
  void detach_host(std::size_t slot);

  // ---- Dirty set -----------------------------------------------------------
  /// Routers a tree repair moved since the last drain. Device churn
  /// dirties nothing (see the preamble).
  [[nodiscard]] std::size_t dirty_count() const noexcept {
    return dirty_.size();
  }
  /// Appends the dirty routers to `out`, clears the set, returns the count.
  std::size_t drain_dirty(std::vector<NodeId>& out);

  /// True iff `node` is a router in the dirty set (distance changed since
  /// the last drain). Used by DelayOracle::check_invariants to prove stale
  /// rows are excused by a pending invalidation.
  [[nodiscard]] bool is_dirty(NodeId node) const noexcept {
    return node < in_dirty_.size() && in_dirty_[node] != 0;
  }

  /// Deep validation, reported through the contracts failure handler:
  ///  - one tree per edge server, rooted at that server's node, over the
  ///    network's routers (still the id prefix it was built with);
  ///  - dirty-set bookkeeping (dirty list and membership bitmap agree);
  ///  - exactness spot-check: up to `spot_check_trees` servers (rotated by
  ///    epoch so successive calls cover different servers) have delay_ms()
  ///    of every router compared bit-for-bit against a from-scratch
  ///    no-relay Dijkstra on the live graph — the Ramalingam–Reps-style
  ///    repair must be indistinguishable from a full recompute.
  /// A device that moved is nobody's pending notification here: its row's
  /// owner rebinds it, and DelayOracle::check_invariants catches a
  /// forgotten rebind. Cold path (each spot check is one Dijkstra); for
  /// tests and sampled bench epochs.
  void check_invariants(std::size_t spot_check_trees = 1) const;

  /// From-scratch reconstruction of every tree (and dirties every router).
  /// Recovery hatch for out-of-band topology edits, followed by
  /// DelayOracle::refresh_all(); also used by tests.
  void rebuild();

  /// Scratch bytes across all trees plus the dirty set and the per-update
  /// change log — the bench's flat-memory gate watches this across 100k+
  /// events.
  [[nodiscard]] std::size_t scratch_bytes() const noexcept;

 private:
  [[nodiscard]] bool is_router(NodeId node) const noexcept {
    return node < router_count_;
  }
  /// Builds every tree and sizes the dirty bitmap.
  void build_trees();
  void mark_dirty(NodeId router);
  /// Applies one already-performed graph mutation: a backbone link repairs
  /// every tree, a server's access link its own tree, any other link none;
  /// then the routers those repairs moved are dirtied. kind: 0 added,
  /// 1 removed, 2 reweighted; old_ms/new_ms are the link latency
  /// before/after (kUnreachable when absent).
  void apply_mutation(int kind, NodeId u, NodeId v, double old_ms,
                      double new_ms);

  NetworkTopology* net_;
  std::size_t router_count_ = 0;
  std::vector<DynamicSsspTree> trees_;  ///< trees_[j] rooted at edge_nodes[j]
  EngineStats stats_;

  std::vector<NodeId> dirty_;
  std::vector<std::uint8_t> in_dirty_;  ///< per router: already in dirty_?
  std::vector<NodeId> changes_;         ///< one tree's moved routers
};

}  // namespace tacc::topo::incr
