#include "topology/graph.hpp"

#include <stdexcept>
#include <string>

#include "util/contracts.hpp"

namespace tacc::topo {

NodeId Graph::add_node() {
  adjacency_.emplace_back();
  return static_cast<NodeId>(adjacency_.size() - 1);
}

std::size_t Graph::entry_index(NodeId from, NodeId to) const {
  const auto& list = adjacency_[from];
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (list[i].to == to) return i;
  }
  return kNoEntry;
}

void Graph::add_edge(NodeId u, NodeId v, EdgeProps props) {
  if (u >= node_count() || v >= node_count()) {
    throw std::out_of_range("Graph::add_edge: node id out of range");
  }
  if (u == v) {
    throw std::invalid_argument("Graph::add_edge: self-loops not supported");
  }
  if (!(props.latency_ms > 0.0)) {
    throw std::invalid_argument("Graph::add_edge: latency must be positive");
  }
  adjacency_[u].push_back({v, props});
  adjacency_[v].push_back({u, props});
  ++edges_;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  return edge_props(u, v) != nullptr;
}

const EdgeProps* Graph::edge_props(NodeId u, NodeId v) const {
  const auto& list = adjacency_.at(u);
  const std::size_t at = entry_index(u, v);
  return at == kNoEntry ? nullptr : &list[at].props;
}

bool Graph::set_edge_latency(NodeId u, NodeId v, double latency_ms) {
  if (!(latency_ms > 0.0)) {
    throw std::invalid_argument(
        "Graph::set_edge_latency: latency must be positive");
  }
  if (u >= node_count() || v >= node_count()) return false;
  // Mirror entries are kept in matching insertion order (add_edge appends
  // to both lists; remove_edge keeps each in order), so rewriting the first
  // match on each side updates one undirected edge.
  const std::size_t at_u = entry_index(u, v);
  if (at_u == kNoEntry) return false;
  adjacency_[u][at_u].props.latency_ms = latency_ms;
  adjacency_[v][entry_index(v, u)].props.latency_ms = latency_ms;
  return true;
}

bool Graph::remove_edge(NodeId u, NodeId v) {
  if (u >= node_count() || v >= node_count()) return false;
  const std::size_t at_u = entry_index(u, v);
  if (at_u == kNoEntry) return false;
  const std::size_t at_v = entry_index(v, u);
  adjacency_[u].erase(adjacency_[u].begin() +
                      static_cast<std::ptrdiff_t>(at_u));
  adjacency_[v].erase(adjacency_[v].begin() +
                      static_cast<std::ptrdiff_t>(at_v));
  --edges_;
  return true;
}

void Graph::check_invariants() const {
  // Adjacency symmetry: mirror entries are kept in matching insertion order
  // (see set_edge_latency), so the k-th u->v entry must pair with the k-th
  // v->u entry, carrying identical properties.
  std::size_t directed_entries = 0;
  for (NodeId u = 0; u < adjacency_.size(); ++u) {
    for (const Adjacency& adj : adjacency_[u]) {
      ++directed_entries;
      const NodeId v = adj.to;
      TACC_CHECK_INVARIANT(v < adjacency_.size(),
                           "edge endpoint out of range");
      TACC_CHECK_INVARIANT(v != u, "self-loop at node " + std::to_string(u));
      TACC_CHECK_INVARIANT(adj.props.latency_ms > 0.0,
                           "non-positive edge latency");
      // Rank of this u->v entry among u's edges to v.
      std::size_t rank = 0;
      for (const Adjacency& prior : adjacency_[u]) {
        if (&prior == &adj) break;
        if (prior.to == v) ++rank;
      }
      // Find the mirror of the same rank.
      const Adjacency* mirror = nullptr;
      std::size_t seen = 0;
      for (const Adjacency& back : adjacency_[v]) {
        if (back.to != u) continue;
        if (seen == rank) {
          mirror = &back;
          break;
        }
        ++seen;
      }
      TACC_CHECK_INVARIANT(mirror != nullptr,
                           "asymmetric adjacency: " + std::to_string(u) +
                               "->" + std::to_string(v) + " has no mirror");
      TACC_CHECK_INVARIANT(
          mirror->props.latency_ms == adj.props.latency_ms &&
              mirror->props.bandwidth_mbps == adj.props.bandwidth_mbps,
          "mirror entries disagree on edge properties");
    }
  }
  TACC_CHECK_INVARIANT(directed_entries == 2 * edges_,
                       "edge count out of sync with adjacency storage");
}

}  // namespace tacc::topo
