#include "topology/graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/contracts.hpp"

namespace tacc::topo {

NodeId Graph::add_node(NodeRole role) {
  adjacency_.emplace_back();
  relay_end_.push_back(0);
  leaf_slot_.push_back(0);
  released_.push_back(false);
  leaf_.push_back(role == NodeRole::kLeaf);
  return static_cast<NodeId>(adjacency_.size() - 1);
}

NodeId Graph::acquire_node(NodeRole role) {
  if (free_list_.empty()) return add_node(role);
  const NodeId node = free_list_.back();
  free_list_.pop_back();
  released_[node] = false;
  // A released node has no edges, so no list holds an entry for it.
  leaf_[node] = role == NodeRole::kLeaf;
  return node;
}

std::size_t Graph::entry_index(NodeId from, NodeId to) const {
  if (leaf_[to]) {
    const auto& links = adjacency_[to];
    return !links.empty() && links.front().to == from ? leaf_slot_[to]
                                                       : kNoEntry;
  }
  const auto& list = adjacency_[from];
  for (std::size_t i = 0; i < relay_end_[from]; ++i) {
    if (list[i].to == to) return i;
  }
  return kNoEntry;
}

void Graph::insert_entry(NodeId from, Adjacency entry) {
  auto& list = adjacency_[from];
  if (leaf_[entry.to]) {
    leaf_slot_[entry.to] = static_cast<std::uint32_t>(list.size());
    list.push_back(entry);
    return;
  }
  const std::uint32_t end = relay_end_[from]++;
  if (end < list.size()) {
    list.push_back(list[end]);
    leaf_slot_[list.back().to] = static_cast<std::uint32_t>(list.size() - 1);
    list[end] = entry;
  } else {
    list.push_back(entry);
  }
}

void Graph::erase_entry(NodeId from, std::size_t index) {
  auto& list = adjacency_[from];
  if (index < relay_end_[from]) {
    // Close the gap inside the prefix; its last slot is then the free one.
    const auto end = list.begin() + relay_end_[from];
    std::move(list.begin() + static_cast<std::ptrdiff_t>(index) + 1, end,
              list.begin() + static_cast<std::ptrdiff_t>(index));
    index = --relay_end_[from];
  }
  if (index + 1 < list.size()) {
    list[index] = list.back();
    leaf_slot_[list[index].to] = static_cast<std::uint32_t>(index);
  }
  list.pop_back();
}

void Graph::release_node(NodeId node) {
  if (node >= node_count()) {
    throw std::out_of_range("Graph::release_node: node id out of range");
  }
  if (released_[node]) {
    throw std::invalid_argument("Graph::release_node: already released");
  }
  // Each entry in our list is one undirected edge; drop its mirror entry at
  // the other endpoint (one mirror per entry, so parallel edges stay paired).
  for (const Adjacency& adj : adjacency_[node]) {
    const std::size_t mirror = entry_index(adj.to, node);
    TACC_ASSERT(mirror != kNoEntry, "released node's edge had no mirror entry");
    erase_entry(adj.to, mirror);
    --edges_;
  }
  adjacency_[node].clear();
  adjacency_[node].shrink_to_fit();
  relay_end_[node] = 0;
  released_[node] = true;
  free_list_.push_back(node);
}

void Graph::add_edge(NodeId u, NodeId v, EdgeProps props) {
  if (u >= node_count() || v >= node_count()) {
    throw std::out_of_range("Graph::add_edge: node id out of range");
  }
  if (u == v) {
    throw std::invalid_argument("Graph::add_edge: self-loops not supported");
  }
  if (released_[u] || released_[v]) {
    throw std::invalid_argument("Graph::add_edge: endpoint is released");
  }
  if (!(props.latency_ms > 0.0)) {
    throw std::invalid_argument("Graph::add_edge: latency must be positive");
  }
  if ((leaf_[u] && !adjacency_[u].empty()) ||
      (leaf_[v] && !adjacency_[v].empty())) {
    throw std::invalid_argument("Graph::add_edge: a leaf takes one link");
  }
  insert_entry(u, {v, props});
  insert_entry(v, {u, props});
  ++edges_;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  return edge_props(u, v) != nullptr;
}

const EdgeProps* Graph::edge_props(NodeId u, NodeId v) const {
  const auto& list = adjacency_.at(u);
  if (v >= node_count()) return nullptr;
  const std::size_t at = entry_index(u, v);
  return at == kNoEntry ? nullptr : &list[at].props;
}

bool Graph::set_edge_latency(NodeId u, NodeId v, double latency_ms) {
  if (!(latency_ms > 0.0)) {
    throw std::invalid_argument(
        "Graph::set_edge_latency: latency must be positive");
  }
  if (u >= node_count() || v >= node_count()) return false;
  // Mirror relay entries are kept in matching insertion order (add_edge
  // appends to both prefixes; erase_entry keeps each prefix in order), so
  // rewriting the first match on each side updates one undirected edge.
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
  erase_entry(u, at_u);
  erase_entry(v, at_v);
  --edges_;
  return true;
}

void Graph::check_invariants() const {
  TACC_CHECK_INVARIANT(released_.size() == adjacency_.size() &&
                           leaf_.size() == adjacency_.size() &&
                           relay_end_.size() == adjacency_.size() &&
                           leaf_slot_.size() == adjacency_.size(),
                       "per-node tables must cover every node");
  TACC_CHECK_INVARIANT(free_list_.size() <= adjacency_.size(),
                       "free list larger than the node table");

  // Free list vs released bitmap: same set, no duplicates, empty adjacency.
  std::vector<bool> on_free_list(adjacency_.size(), false);
  for (const NodeId node : free_list_) {
    TACC_CHECK_INVARIANT(node < adjacency_.size(),
                         "free-list id out of range: " + std::to_string(node));
    TACC_CHECK_INVARIANT(!on_free_list[node],
                         "node on the free list twice: " +
                             std::to_string(node));
    on_free_list[node] = true;
    TACC_CHECK_INVARIANT(released_[node],
                         "free-list node not marked released: " +
                             std::to_string(node));
    TACC_CHECK_INVARIANT(adjacency_[node].empty(),
                         "released node still has edges: " +
                             std::to_string(node));
  }
  for (NodeId node = 0; node < adjacency_.size(); ++node) {
    TACC_CHECK_INVARIANT(released_[node] == on_free_list[node],
                         "released node missing from the free list: " +
                             std::to_string(node));
  }

  // Adjacency symmetry: mirror relay entries are kept in matching insertion
  // order (see set_edge_latency) and a leaf has one link, so the k-th u->v
  // entry must pair with the k-th v->u entry, carrying identical properties.
  std::size_t directed_entries = 0;
  for (NodeId u = 0; u < adjacency_.size(); ++u) {
    std::size_t own_rank = 0;  // rank of each u->v among u's entries to v
    for (const Adjacency& adj : adjacency_[u]) {
      ++directed_entries;
      const NodeId v = adj.to;
      TACC_CHECK_INVARIANT(v < adjacency_.size(),
                           "edge endpoint out of range");
      TACC_CHECK_INVARIANT(v != u, "self-loop at node " + std::to_string(u));
      TACC_CHECK_INVARIANT(!released_[u] && !released_[v],
                           "edge touches a released node");
      TACC_CHECK_INVARIANT(adj.props.latency_ms > 0.0,
                           "non-positive edge latency");
      // Rank of this u->v entry among u's edges to v.
      std::size_t rank = 0;
      for (const Adjacency& prior : adjacency_[u]) {
        if (&prior == &adj) break;
        if (prior.to == v) ++rank;
      }
      own_rank = rank;
      // Find the mirror of the same rank.
      const Adjacency* mirror = nullptr;
      std::size_t seen = 0;
      for (const Adjacency& back : adjacency_[v]) {
        if (back.to != u) continue;
        if (seen == own_rank) {
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

  // Layout: relay far ends exactly fill the prefix; a leaf has at most one
  // link, and its mirror sits at the slot the leaf recorded.
  for (NodeId u = 0; u < adjacency_.size(); ++u) {
    const auto& list = adjacency_[u];
    TACC_CHECK_INVARIANT(relay_end_[u] <= list.size(),
                         "relay prefix longer than the list at node " +
                             std::to_string(u));
    for (std::size_t i = 0; i < list.size(); ++i) {
      TACC_CHECK_INVARIANT(
          leaf_[list[i].to] == (i >= relay_end_[u]),
          (i < relay_end_[u] ? "leaf entry inside the relay prefix"
                             : "relay entry outside the relay prefix") +
              std::string(" at node ") + std::to_string(u));
    }
    if (!leaf_[u]) continue;
    TACC_CHECK_INVARIANT(list.size() <= 1,
                         "leaf with more than one link: " + std::to_string(u));
    if (list.empty()) continue;
    const auto& back = adjacency_[list.front().to];
    TACC_CHECK_INVARIANT(
        leaf_slot_[u] < back.size() && back[leaf_slot_[u]].to == u,
        "leaf entry not at its recorded position: " + std::to_string(u));
  }
}

double Graph::total_latency() const noexcept {
  double total = 0.0;
  for (const auto& list : adjacency_) {
    for (const auto& adj : list) total += adj.props.latency_ms;
  }
  return total / 2.0;  // each undirected edge counted from both endpoints
}

}  // namespace tacc::topo
