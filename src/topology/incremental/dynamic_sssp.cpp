#include "topology/incremental/dynamic_sssp.hpp"

#include <algorithm>

namespace tacc::topo::incr {

DynamicSsspTree::DynamicSsspTree(const Graph& graph, std::size_t routers,
                                 NodeId source)
    : source_(source),
      dist_(routers, kUnreachable),
      parent_(routers, kInvalidNode),
      mark_(routers, 0),
      cmark_(routers, 0) {
  if (is_router(source)) {
    dist_[source] = 0.0;
    heap_.push_back({0.0, source});
  } else {
    // A host source: its access links are the first hops, at 0 + w — the
    // sum a Dijkstra from the host itself would form.
    for (const Adjacency& adj : graph.neighbors(source)) {
      const double seed = 0.0 + adj.props.latency_ms;
      if (is_router(adj.to) && seed < dist_[adj.to]) {
        improve(adj.to, seed, source, nullptr);
      }
    }
  }
  run_heap(graph, /*orphan_only=*/false, nullptr);
}

void DynamicSsspTree::bump_epochs() {
  if (++mark_epoch_ == 0) {
    std::fill(mark_.begin(), mark_.end(), 0);
    mark_epoch_ = 1;
  }
  if (++cmark_epoch_ == 0) {
    std::fill(cmark_.begin(), cmark_.end(), 0);
    cmark_epoch_ = 1;
  }
}

void DynamicSsspTree::improve(NodeId router, double dist, NodeId via,
                              std::vector<NodeId>* changed) {
  if (changed != nullptr && cmark_[router] != cmark_epoch_) {
    cmark_[router] = cmark_epoch_;
    changed->push_back(router);
  }
  dist_[router] = dist;
  parent_[router] = via;
  heap_.push_back({dist, router});
  std::push_heap(heap_.begin(), heap_.end());
}

std::size_t DynamicSsspTree::run_heap(const Graph& graph, bool orphan_only,
                                      std::vector<NodeId>* changed) {
  std::size_t settled = 0;
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end());
    const HeapEntry top = heap_.back();
    heap_.pop_back();
    if (top.dist > dist_[top.node]) continue;  // stale entry
    ++settled;
    for (const Adjacency& adj : graph.neighbors(top.node)) {
      if (!is_router(adj.to) || (orphan_only && !marked(adj.to))) continue;
      const double candidate = top.dist + adj.props.latency_ms;
      if (candidate < dist_[adj.to]) {
        improve(adj.to, candidate, top.node, changed);
      }
    }
  }
  return settled;
}

std::size_t DynamicSsspTree::on_edge_added(
    const Graph& graph, NodeId u, NodeId v, double latency_ms,
    std::vector<NodeId>& changed) {
  bump_epochs();
  heap_.clear();
  if (is_router(v)) {
    const double via_u = relay_ms(u) + latency_ms;
    if (via_u < dist_[v]) improve(v, via_u, u, &changed);
  }
  if (is_router(u)) {
    const double via_v = relay_ms(v) + latency_ms;
    if (via_v < dist_[u]) improve(u, via_v, v, &changed);
  }
  return run_heap(graph, /*orphan_only=*/false, &changed);
}

std::size_t DynamicSsspTree::on_edge_removed(
    const Graph& graph, NodeId u, NodeId v,
    std::vector<NodeId>& changed) {
  return repair_tree_edge(graph, u, v, changed);
}

std::size_t DynamicSsspTree::on_edge_latency_changed(
    const Graph& graph, NodeId u, NodeId v, double old_latency_ms,
    double new_latency_ms, std::vector<NodeId>& changed) {
  if (new_latency_ms < old_latency_ms) {
    // A cheaper edge behaves exactly like a fresh insertion: only paths
    // through it can improve.
    return on_edge_added(graph, u, v, new_latency_ms, changed);
  }
  if (new_latency_ms > old_latency_ms) {
    // A costlier tree edge is a deletion followed by re-relaxation in which
    // the (still present, reweighted) edge competes like any other frontier
    // edge.
    return repair_tree_edge(graph, u, v, changed);
  }
  return 0;
}

std::size_t DynamicSsspTree::repair_tree_edge(
    const Graph& graph, NodeId u, NodeId v,
    std::vector<NodeId>& changed) {
  // Only the tree edge's child-side subtree can be affected: every other
  // router's shortest path survives intact, and deletion never shortens
  // one. A non-tree edge changes nothing.
  if (is_router(v) && parent_[v] == u) {
    return repair_orphans(graph, v, changed);
  }
  if (is_router(u) && parent_[u] == v) {
    return repair_orphans(graph, u, changed);
  }
  return 0;
}

std::size_t DynamicSsspTree::repair_orphans(
    const Graph& graph, NodeId child, std::vector<NodeId>& changed) {
  bump_epochs();

  // Collect the subtree below `child` by scanning each orphan's neighbors
  // for routers parented to it — tree children are always graph neighbors,
  // so this costs O(Σ deg(orphan)) without maintaining child lists.
  orphans_.clear();
  old_dist_.clear();
  mark_[child] = mark_epoch_;
  orphans_.push_back(child);
  for (std::size_t i = 0; i < orphans_.size(); ++i) {
    const NodeId x = orphans_[i];
    for (const Adjacency& adj : graph.neighbors(x)) {
      if (is_router(adj.to) && !marked(adj.to) && parent_[adj.to] == x) {
        mark_[adj.to] = mark_epoch_;
        orphans_.push_back(adj.to);
      }
    }
  }

  for (const NodeId x : orphans_) {
    old_dist_.push_back(dist_[x]);
    dist_[x] = kUnreachable;
    parent_[x] = kInvalidNode;
  }

  // Seed each orphan with its best non-orphan neighbor (those distances are
  // final — deletion/increase can only lengthen paths), then settle the
  // orphan region with a Dijkstra that never leaves it.
  heap_.clear();
  for (const NodeId x : orphans_) {
    for (const Adjacency& adj : graph.neighbors(x)) {
      if (is_router(adj.to) && marked(adj.to)) continue;
      const double base = relay_ms(adj.to);
      if (base == kUnreachable) continue;
      const double candidate = base + adj.props.latency_ms;
      if (candidate < dist_[x]) {
        dist_[x] = candidate;
        parent_[x] = adj.to;
      }
    }
    if (dist_[x] != kUnreachable) {
      heap_.push_back({dist_[x], x});
      std::push_heap(heap_.begin(), heap_.end());
    }
  }
  run_heap(graph, /*orphan_only=*/true, nullptr);

  for (std::size_t i = 0; i < orphans_.size(); ++i) {
    if (dist_[orphans_[i]] != old_dist_[i]) {
      changed.push_back(orphans_[i]);
    }
  }
  return orphans_.size();
}

std::size_t DynamicSsspTree::scratch_bytes() const noexcept {
  return heap_.capacity() * sizeof(HeapEntry) +
         mark_.capacity() * sizeof(std::uint32_t) +
         cmark_.capacity() * sizeof(std::uint32_t) +
         orphans_.capacity() * sizeof(NodeId) +
         old_dist_.capacity() * sizeof(double);
}

}  // namespace tacc::topo::incr
