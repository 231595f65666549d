#include "topology/incremental/dynamic_sssp.hpp"

#include <algorithm>

namespace tacc::topo::incr {

DynamicSsspTree::DynamicSsspTree(const Graph& graph, NodeId source,
                                 PendantMask skip)
    : source_(source) {
  ShortestPathTree tree = dijkstra(graph, source);
  dist_ = std::move(tree.distance_ms);
  parent_ = std::move(tree.parent);
  mark_.assign(dist_.size(), 0);
  cmark_.assign(dist_.size(), 0);
  // A masked leaf is never anyone's parent (a path through it would have
  // to leave by the link it came in on), so clearing it affects no other
  // slot.
  for (std::size_t node = 0; node < skip.size() && node < dist_.size();
       ++node) {
    if (skip[node] == 0) continue;
    dist_[node] = kUnreachable;
    parent_[node] = kInvalidNode;
  }
}

void DynamicSsspTree::ensure_node_count(std::size_t count) {
  if (count <= dist_.size()) return;
  dist_.resize(count, kUnreachable);
  parent_.resize(count, kInvalidNode);
  mark_.resize(count, 0);
  cmark_.resize(count, 0);
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

void DynamicSsspTree::adopt_leaf(NodeId node, NodeId via, double latency_ms) {
  ensure_node_count(std::max(node, via) + std::size_t{1});
  dist_[node] = dist_[via] + latency_ms;
  parent_[node] = dist_[via] == kUnreachable ? kInvalidNode : via;
}

void DynamicSsspTree::improve(NodeId node, double dist, NodeId via,
                              std::vector<DistanceChange>* changed) {
  if (changed != nullptr && cmark_[node] != cmark_epoch_) {
    cmark_[node] = cmark_epoch_;
    changed->push_back({node, dist_[node]});
  }
  dist_[node] = dist;
  parent_[node] = via;
  heap_.push_back({dist, node});
  std::push_heap(heap_.begin(), heap_.end());
}

std::size_t DynamicSsspTree::run_heap(const Graph& graph, bool orphan_only,
                                      PendantMask skip,
                                      std::vector<DistanceChange>* changed) {
  std::size_t settled = 0;
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end());
    const HeapEntry top = heap_.back();
    heap_.pop_back();
    if (top.dist > dist_[top.node]) continue;  // stale entry
    ++settled;
    for (const Adjacency& adj : graph.neighbors(top.node)) {
      if (masked(skip, adj.to) || (orphan_only && !marked(adj.to))) {
        continue;
      }
      const double candidate = top.dist + adj.props.latency_ms;
      if (candidate < dist_[adj.to]) {
        improve(adj.to, candidate, top.node, changed);
      }
    }
  }
  return settled;
}

SsspUpdateStats DynamicSsspTree::on_edge_added(
    const Graph& graph, NodeId u, NodeId v, double latency_ms,
    std::vector<DistanceChange>& changed, PendantMask skip) {
  ensure_node_count(graph.node_count());
  bump_epochs();
  heap_.clear();
  const std::size_t before = changed.size();

  const double via_u = dist_[u] + latency_ms;
  if (via_u < dist_[v]) improve(v, via_u, u, &changed);
  const double via_v = dist_[v] + latency_ms;
  if (via_v < dist_[u]) improve(u, via_v, v, &changed);

  SsspUpdateStats stats;
  stats.nodes_affected =
      run_heap(graph, /*orphan_only=*/false, skip, &changed);
  stats.nodes_changed = changed.size() - before;
  return stats;
}

SsspUpdateStats DynamicSsspTree::on_edge_removed(
    const Graph& graph, NodeId u, NodeId v,
    std::vector<DistanceChange>& changed, PendantMask skip) {
  ensure_node_count(graph.node_count());
  // Only the tree edge's child-side subtree can be affected: every other
  // node's shortest path survives intact, and deletion never shortens one.
  if (parent_[v] == u) return repair_orphans(graph, v, changed, skip);
  if (parent_[u] == v) return repair_orphans(graph, u, changed, skip);
  return {};
}

SsspUpdateStats DynamicSsspTree::on_edge_latency_changed(
    const Graph& graph, NodeId u, NodeId v, double old_latency_ms,
    double new_latency_ms, std::vector<DistanceChange>& changed,
    PendantMask skip) {
  ensure_node_count(graph.node_count());
  if (new_latency_ms < old_latency_ms) {
    // A cheaper edge behaves exactly like a fresh insertion: only paths
    // through it can improve.
    return on_edge_added(graph, u, v, new_latency_ms, changed, skip);
  }
  if (new_latency_ms > old_latency_ms) {
    // A costlier non-tree edge changes nothing; a costlier tree edge is a
    // deletion followed by re-relaxation in which the (still present,
    // reweighted) edge competes like any other frontier edge.
    if (parent_[v] == u) return repair_orphans(graph, v, changed, skip);
    if (parent_[u] == v) return repair_orphans(graph, u, changed, skip);
  }
  return {};
}

SsspUpdateStats DynamicSsspTree::repair_orphans(
    const Graph& graph, NodeId child, std::vector<DistanceChange>& changed,
    PendantMask skip) {
  bump_epochs();

  // Collect the subtree below `child` by scanning each orphan's neighbors
  // for nodes parented to it — tree children are always graph neighbors, so
  // this costs O(Σ deg(orphan)) without maintaining child lists.
  orphans_.clear();
  old_dist_.clear();
  mark_[child] = mark_epoch_;
  orphans_.push_back(child);
  for (std::size_t i = 0; i < orphans_.size(); ++i) {
    const NodeId x = orphans_[i];
    for (const Adjacency& adj : graph.neighbors(x)) {
      if (masked(skip, adj.to)) continue;
      if (!marked(adj.to) && parent_[adj.to] == x) {
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
      if (masked(skip, adj.to) || marked(adj.to) ||
          dist_[adj.to] == kUnreachable) {
        continue;
      }
      const double candidate = dist_[adj.to] + adj.props.latency_ms;
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
  run_heap(graph, /*orphan_only=*/true, skip, nullptr);

  SsspUpdateStats stats;
  stats.nodes_affected = orphans_.size();
  for (std::size_t i = 0; i < orphans_.size(); ++i) {
    if (dist_[orphans_[i]] != old_dist_[i]) {
      changed.push_back({orphans_[i], old_dist_[i]});
      ++stats.nodes_changed;
    }
  }
  return stats;
}

std::size_t DynamicSsspTree::scratch_bytes() const noexcept {
  return heap_.capacity() * sizeof(HeapEntry) +
         mark_.capacity() * sizeof(std::uint32_t) +
         cmark_.capacity() * sizeof(std::uint32_t) +
         orphans_.capacity() * sizeof(NodeId) +
         old_dist_.capacity() * sizeof(double);
}

}  // namespace tacc::topo::incr
