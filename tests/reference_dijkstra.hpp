// Test-only reference for topo::dijkstra(): the straightforward loop that
// pushes every improved node onto the heap and skips the non-relays when
// they pop. The library's version never heaps a node it will not expand;
// tests check it against this one bit for bit, distances and parents.
#pragma once

#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "topology/shortest_paths.hpp"

namespace tacc::test {

inline topo::ShortestPathTree reference_dijkstra(
    const topo::Graph& graph, topo::NodeId source,
    std::size_t relays = topo::kEveryNodeRelays) {
  const std::size_t n = graph.node_count();
  topo::ShortestPathTree tree;
  tree.distance_ms.assign(n, topo::kUnreachable);
  tree.parent.assign(n, topo::kInvalidNode);
  if (source >= n) return tree;

  using HeapEntry = std::pair<double, topo::NodeId>;  // (distance, node)
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap;
  tree.distance_ms[source] = 0.0;
  heap.push({0.0, source});
  while (!heap.empty()) {
    const auto [dist, node] = heap.top();
    heap.pop();
    if (dist > tree.distance_ms[node]) continue;  // stale entry
    if (node >= relays && node != source) continue;  // settled, not expanded
    for (const topo::Adjacency& adj : graph.neighbors(node)) {
      const double candidate = dist + adj.props.latency_ms;
      if (candidate < tree.distance_ms[adj.to]) {
        tree.distance_ms[adj.to] = candidate;
        tree.parent[adj.to] = node;
        heap.push({candidate, adj.to});
      }
    }
  }
  return tree;
}

}  // namespace tacc::test
