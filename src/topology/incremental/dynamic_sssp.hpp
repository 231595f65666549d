// Dynamic single-source shortest paths over the routers of a network.
//
// A DynamicSsspTree maintains the distance and parent of every router from
// one source across edge insertions, deletions, and reweightings, touching
// only the affected region instead of re-running Dijkstra from scratch:
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
// Routers only. Routers are the id prefix [0, routers) of the graph
// (NetworkTopology::router_count()); every other node is a host, which
// never relays. The tree's arrays are sized by the router count. A router
// source starts at 0; a host source (an edge server) is seeded at its
// access routers with 0 + w, and its access links are the only host links
// that can move a distance. Any other link with a host endpoint changes
// nothing, so the update hooks ignore it. A host's distance is derived on
// read (delay_ms()): the minimum over its links of the far end's distance
// plus the link latency.
//
// Exactness: distances are the min-plus closure of the rounded edge weights
// (the same value dijkstra() computes in its no-relay mode), so an
// incrementally maintained tree is bit-identical to a from-scratch run at
// every step — the randomized churn tests and bench_m4_linkchurn gate on
// exactly that.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "topology/shortest_paths.hpp"

namespace tacc::topo::incr {

/// The delay from `source` to `node` in a graph whose routers are the ids
/// [0, routers): 0 at the source, a router's own distance `router_ms(r)`,
/// and for any other host the minimum over its links of the far end's
/// distance plus the latency. A host relays nothing, so a far end counts
/// only if it is a router or the source.
template <typename RouterMs>
[[nodiscard]] double delay_from(const Graph& graph, std::size_t routers,
                                NodeId source, NodeId node,
                                RouterMs&& router_ms) {
  if (node == source) return 0.0;
  if (node < routers) return router_ms(node);
  double best = kUnreachable;
  for (const Adjacency& adj : graph.neighbors(node)) {
    const double base = adj.to == source   ? 0.0
                        : adj.to < routers ? router_ms(adj.to)
                                           : kUnreachable;
    best = std::min(best, base + adj.props.latency_ms);
  }
  return best;
}

class DynamicSsspTree {
 public:
  DynamicSsspTree() = default;
  /// Runs a routers-only Dijkstra from `source` over `graph`, whose routers
  /// are the ids [0, routers).
  DynamicSsspTree(const Graph& graph, std::size_t routers, NodeId source);

  [[nodiscard]] NodeId source() const noexcept { return source_; }
  [[nodiscard]] std::size_t router_count() const noexcept {
    return dist_.size();
  }
  [[nodiscard]] double distance_ms(NodeId router) const {
    return dist_.at(router);
  }
  /// Distances by router id.
  [[nodiscard]] const std::vector<double>& distances() const noexcept {
    return dist_;
  }
  /// delay_from() this tree's source to any node.
  [[nodiscard]] double delay_ms(const Graph& graph, NodeId node) const {
    return delay_from(graph, dist_.size(), source_, node,
                      [this](NodeId router) { return dist_[router]; });
  }

  // Update hooks. The graph must ALREADY reflect the mutation (edge present
  // for added, absent for removed, new weight for changed). Routers whose
  // distance changed are appended to `changed`, each once. Each returns the
  // count of routers examined for change (orphaned or improved).
  std::size_t on_edge_added(const Graph& graph, NodeId u, NodeId v,
                            double latency_ms,
                            std::vector<NodeId>& changed);
  std::size_t on_edge_removed(const Graph& graph, NodeId u, NodeId v,
                              std::vector<NodeId>& changed);
  std::size_t on_edge_latency_changed(const Graph& graph, NodeId u, NodeId v,
                                      double old_latency_ms,
                                      double new_latency_ms,
                                      std::vector<NodeId>& changed);

  /// Bytes held by the scratch buffers (orphan list, heap, marks) — the
  /// bench's flat-memory gate checks this stays O(routers), independent of
  /// how many updates have been applied.
  [[nodiscard]] std::size_t scratch_bytes() const noexcept;

 private:
  struct HeapEntry {
    double dist;
    NodeId node;
    [[nodiscard]] bool operator<(const HeapEntry& other) const noexcept {
      return dist > other.dist;  // min-heap via std::push_heap
    }
  };

  [[nodiscard]] bool is_router(NodeId node) const noexcept {
    return node < dist_.size();
  }
  /// The distance a path may continue from: the source's 0, a router's own
  /// distance, unreachable for any other host (it relays nothing).
  [[nodiscard]] double relay_ms(NodeId node) const noexcept {
    if (node == source_) return 0.0;
    return is_router(node) ? dist_[node] : kUnreachable;
  }
  /// Advances the scratch epochs (resetting the arrays on wraparound).
  void bump_epochs();
  /// Records the improved distance/parent, pushes the router, and appends it
  /// to `changed` the first time it moves this update.
  void improve(NodeId router, double dist, NodeId via,
               std::vector<NodeId>* changed);
  /// Bounded Dijkstra over the pre-seeded heap_: pops until empty, relaxing
  /// into orphans only (marked) or all routers. Returns the settled count.
  std::size_t run_heap(const Graph& graph, bool orphan_only,
                       std::vector<NodeId>* changed);
  /// Delete/increase repair: collect the subtree below `child`, invalidate
  /// it, re-seed from the surviving frontier, settle within the orphan set.
  std::size_t repair_orphans(const Graph& graph, NodeId child,
                             std::vector<NodeId>& changed);
  /// Repairs below whichever endpoint hangs off the other in the tree.
  std::size_t repair_tree_edge(const Graph& graph, NodeId u, NodeId v,
                               std::vector<NodeId>& changed);
  [[nodiscard]] bool marked(NodeId router) const noexcept {
    return mark_[router] == mark_epoch_;
  }

  NodeId source_ = kInvalidNode;
  std::vector<double> dist_;     ///< per router
  std::vector<NodeId> parent_;   ///< per router; the source for its seeds

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
