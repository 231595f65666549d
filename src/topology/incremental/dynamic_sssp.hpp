// Dynamic single-source shortest paths over the latency metric.
//
// A DynamicSsspTree maintains the distance and parent of every node from one
// source across edge insertions, deletions, and reweightings, touching only
// the affected region instead of re-running Dijkstra from scratch:
//
//  - insert / latency decrease: if the edge improves one endpoint, a bounded
//    Dijkstra from that endpoint pushes the improvement outward and stops at
//    the first unimproved frontier.
//  - delete / latency increase: if the edge is not a tree edge, nothing can
//    change. If it is, the subtree hanging below it ("orphans") is collected
//    by following parent pointers (O(Σ deg(orphan)) — no child lists), its
//    distances are invalidated, and a Dijkstra restricted to the orphan set
//    re-relaxes from the surviving frontier. Non-orphan distances are
//    provably unchanged, so the cost is O(affected · (deg + log)).
//
// Pendant mask: an optional per-node mask names nodes the tree never holds
// (IncrementalDelayEngine's single-homed devices, whose distance it derives
// from their one neighbour). Masked nodes are never relaxed, settled,
// orphaned or pushed; their slots stay unreachable. "affected" then counts
// unmasked nodes only, and a masked neighbour costs a neighbour scan one
// byte of the shared mask — no per-tree array is read for it. An empty mask
// (the landmark trees) keeps every node in the tree.
//
// Exactness: distances are the min-plus closure of the rounded edge weights
// (the same value Dijkstra computes), so an incrementally maintained tree is
// bit-identical to a from-scratch dijkstra() at every step — the randomized
// churn tests and bench_m4_linkchurn gate on exactly that.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "topology/shortest_paths.hpp"

namespace tacc::topo::incr {

/// What one update touched. `nodes_affected` counts nodes examined for
/// change (orphaned or improved); `changed` lists the nodes whose DISTANCE
/// actually changed — the dirty set downstream caches must rewrite.
struct SsspUpdateStats {
  std::size_t nodes_affected = 0;
  std::size_t nodes_changed = 0;
};

/// A node whose distance one update moved, with its distance before the
/// update (the first old value, however often the update moved it).
struct DistanceChange {
  NodeId node = kInvalidNode;
  double old_ms = 0.0;
};

/// Per-node skip mask (non-zero = not held by the tree); empty = none. A
/// non-empty mask must cover every node of the graph passed alongside it.
using PendantMask = std::span<const std::uint8_t>;

class DynamicSsspTree {
 public:
  DynamicSsspTree() = default;
  /// Initializes from a full Dijkstra run; masked slots are then cleared.
  DynamicSsspTree(const Graph& graph, NodeId source, PendantMask skip = {});

  [[nodiscard]] NodeId source() const noexcept { return source_; }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return dist_.size();
  }
  [[nodiscard]] double distance_ms(NodeId node) const {
    return dist_.at(node);
  }
  [[nodiscard]] const std::vector<double>& distances() const noexcept {
    return dist_;
  }
  [[nodiscard]] const std::vector<NodeId>& parents() const noexcept {
    return parent_;
  }

  /// Grows internal arrays to cover `count` nodes (new nodes unreachable).
  /// Call after the graph acquires nodes beyond the initial count.
  void ensure_node_count(std::size_t count);

  /// Takes a masked node into the tree as a leaf below `via`, its only
  /// neighbour over a `latency_ms` link: distance dist(via) + latency_ms
  /// (unreachable if `via` is). Then update hooks may treat it as a node.
  void adopt_leaf(NodeId node, NodeId via, double latency_ms);

  // Update hooks. The graph must ALREADY reflect the mutation (edge present
  // for added, absent for removed, new weight for changed), and neither
  // endpoint may be masked in `skip`. Nodes whose distance changed are
  // appended to `changed` (each node once, with its pre-update distance).
  SsspUpdateStats on_edge_added(const Graph& graph, NodeId u, NodeId v,
                                double latency_ms,
                                std::vector<DistanceChange>& changed,
                                PendantMask skip = {});
  SsspUpdateStats on_edge_removed(const Graph& graph, NodeId u, NodeId v,
                                  std::vector<DistanceChange>& changed,
                                  PendantMask skip = {});
  SsspUpdateStats on_edge_latency_changed(const Graph& graph, NodeId u,
                                          NodeId v, double old_latency_ms,
                                          double new_latency_ms,
                                          std::vector<DistanceChange>& changed,
                                          PendantMask skip = {});

  /// Bytes held by the scratch buffers (orphan list, heap, marks) — the
  /// bench's flat-memory gate checks this stays O(V), independent of how
  /// many updates have been applied.
  [[nodiscard]] std::size_t scratch_bytes() const noexcept;

 private:
  struct HeapEntry {
    double dist;
    NodeId node;
    [[nodiscard]] bool operator<(const HeapEntry& other) const noexcept {
      return dist > other.dist;  // min-heap via std::push_heap
    }
  };

  /// Advances the scratch epochs (resetting the arrays on wraparound).
  void bump_epochs();
  /// Records the improved distance/parent, pushes the node, and appends it
  /// (with its old distance) to `changed` the first time it moves this
  /// update.
  void improve(NodeId node, double dist, NodeId via,
               std::vector<DistanceChange>* changed);
  /// Bounded Dijkstra over the pre-seeded heap_: pops until empty, relaxing
  /// into orphans only (marked) or all unmasked nodes. Returns settled-node
  /// count.
  std::size_t run_heap(const Graph& graph, bool orphan_only, PendantMask skip,
                       std::vector<DistanceChange>* changed);
  /// Delete/increase repair: collect the subtree below `child`, invalidate
  /// it, re-seed from the surviving frontier, settle within the orphan set.
  SsspUpdateStats repair_orphans(const Graph& graph, NodeId child,
                                 std::vector<DistanceChange>& changed,
                                 PendantMask skip);
  /// Masked nodes are skipped before any per-tree array is read, so a
  /// neighbour scan costs nothing per pendant beyond one shared mask byte.
  [[nodiscard]] static bool masked(PendantMask skip, NodeId node) noexcept {
    return !skip.empty() && skip[node] != 0;
  }
  [[nodiscard]] bool marked(NodeId node) const noexcept {
    return mark_[node] == mark_epoch_;
  }

  NodeId source_ = kInvalidNode;
  std::vector<double> dist_;
  std::vector<NodeId> parent_;

  // Scratch, reused across updates (epoch-marked so no O(V) clears).
  std::vector<HeapEntry> heap_;
  std::vector<std::uint32_t> mark_;   ///< orphan membership
  std::vector<std::uint32_t> cmark_;  ///< already appended to `changed`
  std::uint32_t mark_epoch_ = 0;
  std::uint32_t cmark_epoch_ = 0;
  std::vector<NodeId> orphans_;
  std::vector<double> old_dist_;  // parallel to orphans_
};

}  // namespace tacc::topo::incr
