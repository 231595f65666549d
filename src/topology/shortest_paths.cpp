#include "topology/shortest_paths.hpp"

#include <algorithm>
#include <queue>

namespace tacc::topo {

std::vector<NodeId> ShortestPathTree::path_to(NodeId target) const {
  if (target >= distance_ms.size() || distance_ms[target] == kUnreachable) {
    return {};
  }
  std::vector<NodeId> path;
  for (NodeId at = target; at != kInvalidNode; at = parent[at]) {
    path.push_back(at);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

ShortestPathTree dijkstra(const Graph& graph, NodeId source,
                          std::size_t relays) {
  const std::size_t n = graph.node_count();
  ShortestPathTree tree;
  tree.distance_ms.assign(n, kUnreachable);
  tree.parent.assign(n, kInvalidNode);
  if (source >= n) return tree;

  using HeapEntry = std::pair<double, NodeId>;  // (distance, node)
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap;
  tree.distance_ms[source] = 0.0;
  heap.push({0.0, source});

  while (!heap.empty()) {
    const auto [dist, node] = heap.top();
    heap.pop();
    if (dist > tree.distance_ms[node]) continue;  // stale entry
    for (const Adjacency& adj : graph.neighbors(node)) {
      const double candidate = dist + adj.props.latency_ms;
      if (candidate < tree.distance_ms[adj.to]) {
        tree.distance_ms[adj.to] = candidate;
        tree.parent[adj.to] = node;
        // A node at or above `relays` is settled by this relaxation alone:
        // it would only be popped to be skipped.
        if (adj.to < relays) heap.push({candidate, adj.to});
      }
    }
  }
  return tree;
}

std::vector<ShortestPathTree> dijkstra_fan_out(const Graph& graph,
                                               std::span<const NodeId> sources,
                                               std::size_t relays) {
  std::vector<ShortestPathTree> result;
  result.reserve(sources.size());
  for (const NodeId source : sources) {
    result.push_back(dijkstra(graph, source, relays));
  }
  return result;
}

std::vector<std::vector<double>> floyd_warshall(const Graph& graph) {
  const std::size_t n = graph.node_count();
  std::vector<std::vector<double>> dist(n,
                                        std::vector<double>(n, kUnreachable));
  for (NodeId u = 0; u < n; ++u) {
    dist[u][u] = 0.0;
    for (const Adjacency& adj : graph.neighbors(u)) {
      dist[u][adj.to] = std::min(dist[u][adj.to], adj.props.latency_ms);
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      if (dist[i][k] == kUnreachable) continue;
      for (std::size_t j = 0; j < n; ++j) {
        const double through = dist[i][k] + dist[k][j];
        if (through < dist[i][j]) dist[i][j] = through;
      }
    }
  }
  return dist;
}

bool is_connected(const Graph& graph) {
  const auto labels = connected_components(graph);
  return std::all_of(labels.begin(), labels.end(),
                     [](std::uint32_t label) { return label == 0; });
}

std::vector<std::uint32_t> connected_components(const Graph& graph) {
  constexpr std::uint32_t kUnlabelled = static_cast<std::uint32_t>(-1);
  const std::size_t n = graph.node_count();
  std::vector<std::uint32_t> label(n, kUnlabelled);
  std::uint32_t next_label = 0;
  for (NodeId start = 0; start < n; ++start) {
    if (label[start] != kUnlabelled) continue;
    std::queue<NodeId> frontier;
    label[start] = next_label;
    frontier.push(start);
    while (!frontier.empty()) {
      const NodeId node = frontier.front();
      frontier.pop();
      for (const Adjacency& adj : graph.neighbors(node)) {
        if (label[adj.to] == kUnlabelled) {
          label[adj.to] = next_label;
          frontier.push(adj.to);
        }
      }
    }
    ++next_label;
  }
  return label;
}

}  // namespace tacc::topo
