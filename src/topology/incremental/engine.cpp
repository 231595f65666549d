#include "topology/incremental/engine.hpp"

#include <algorithm>
#include <string>

#include "runtime/thread_pool.hpp"
#include "util/contracts.hpp"

namespace tacc::topo::incr {

namespace {

bool is_iot_device(const NetworkTopology& net, NodeId node) {
  return node < net.kinds.size() && net.kinds[node] == NodeKind::kIotDevice;
}

}  // namespace

IncrementalDelayEngine::IncrementalDelayEngine(NetworkTopology& net,
                                               std::size_t threads)
    : net_(&net), threads_(threads) {
  build_trees();
}

void IncrementalDelayEngine::build_trees() {
  const Graph& graph = net_->graph;
  // Greedy in id order, so of two devices linked only to each other the
  // lower id is the pendant and the other its (tree-held) anchor.
  pendant_.assign(graph.node_count(), 0);
  pendant_link_.assign(graph.node_count(), PendantLink{});
  for (NodeId node = 0; node < graph.node_count(); ++node) {
    if (is_iot_device(*net_, node) && graph.degree(node) == 1 &&
        pendant_[graph.neighbors(node).front().to] == 0) {
      set_pendant(node, graph.neighbors(node).front());
    }
  }
  trees_.assign(net_->edge_count(), DynamicSsspTree());
  runtime::parallel_for(net_->edge_count(), threads_, [&](std::size_t j) {
    trees_[j] = DynamicSsspTree(graph, net_->edge_nodes[j], pendant_);
  });
  sync_node_count();
}

void IncrementalDelayEngine::sync_node_count() {
  const std::size_t n = net_->graph.node_count();
  if (n > in_dirty_.size()) in_dirty_.resize(n, 0);
  if (n > in_reclassified_.size()) in_reclassified_.resize(n, 0);
  if (n > pendant_.size()) pendant_.resize(n, 0);
  if (n > pendant_link_.size()) pendant_link_.resize(n, PendantLink{});
  if (n > pendants_dirty_in_.size()) pendants_dirty_in_.resize(n, 0);
  for (DynamicSsspTree& tree : trees_) tree.ensure_node_count(n);
}

void IncrementalDelayEngine::delay_row(NodeId node,
                                       std::span<double> out) const {
  TACC_REQUIRE(out.size() == trees_.size(),
               "delay row must have one slot per server");
  if (!is_pendant(node)) {
    for (std::size_t j = 0; j < out.size(); ++j) {
      out[j] = trees_[j].distance_ms(node);
    }
    return;
  }
  const PendantLink& link = pendant_link_[node];
  for (std::size_t j = 0; j < out.size(); ++j) {
    out[j] = trees_[j].distance_ms(link.anchor) + link.latency_ms;
  }
}

void IncrementalDelayEngine::set_pendant(NodeId node, const Adjacency& link) {
  pendant_[node] = 1;
  pendant_link_[node] = {link.to, link.props.latency_ms};
}

void IncrementalDelayEngine::clear_pendant(NodeId node) {
  pendant_[node] = 0;
  pendant_link_[node] = {};
}

void IncrementalDelayEngine::mark_dirty(NodeId node) {
  if (in_dirty_[node] != 0) return;
  in_dirty_[node] = 1;
  dirty_.push_back(node);
}

void IncrementalDelayEngine::mark_reclassified(NodeId node) {
  if (in_reclassified_[node] != 0) return;
  in_reclassified_[node] = 1;
  reclassified_.push_back(node);
}

NodeId IncrementalDelayEngine::classify_added_link(NodeId u, NodeId v) {
  const Graph& graph = net_->graph;
  // A pendant with a second link joins the trees where it hangs today.
  for (const NodeId node : {u, v}) {
    if (!is_pendant(node)) continue;
    const PendantLink link = pendant_link_[node];
    for (DynamicSsspTree& tree : trees_) {
      tree.adopt_leaf(node, link.anchor, link.latency_ms);
    }
    clear_pendant(node);
    mark_reclassified(node);
  }
  // A device that was isolated hangs off the other endpoint, which after
  // the promotions above is not a pendant. Its tree slots already read
  // unreachable, so masking it changes no tree.
  for (const NodeId node : {u, v}) {
    if (is_iot_device(*net_, node) && graph.degree(node) == 1) {
      set_pendant(node, graph.neighbors(node).front());
      mark_reclassified(node);
      return node;
    }
  }
  return kInvalidNode;
}

void IncrementalDelayEngine::apply_mutation(int kind, NodeId u, NodeId v,
                                            double old_ms, double new_ms) {
  sync_node_count();
  const Graph& graph = net_->graph;
  // A full recompute would settle every live node once per tree; the
  // difference against what the incremental repair actually touched is the
  // work saved — the number bench_m4_linkchurn's speedup gate measures.
  const std::uint64_t full_cost =
      static_cast<std::uint64_t>(trees_.size()) * graph.live_node_count();
  std::uint64_t affected = 0;
  const NodeId leaf = kind == 0       ? classify_added_link(u, v)
                      : is_pendant(u) ? u
                      : is_pendant(v) ? v
                                      : kInvalidNode;
  if (leaf != kInvalidNode) {
    // A pendant's access link: its delay dist_j(anchor) + latency is the
    // only one that can move, and no tree holds it.
    const PendantLink link = pendant_link_[leaf];
    const double before = kind == 0 ? kUnreachable : link.latency_ms;
    const double after = kind == 1 ? kUnreachable : new_ms;
    for (const DynamicSsspTree& tree : trees_) {
      const double base = tree.distance_ms(link.anchor);
      if (base + before != base + after) {
        mark_dirty(leaf);
        break;
      }
    }
    // Removed: the device is isolated, unreachable in every tree — which
    // its tree slots already say.
    if (kind == 1) {
      clear_pendant(leaf);
    } else {
      pendant_link_[leaf].latency_ms = new_ms;
    }
    // An added link's new pendant was reported by classify_added_link().
    if (kind != 0) mark_reclassified(leaf);
  } else {
    const std::uint64_t event = stats_.epoch + 1;
    for (DynamicSsspTree& tree : trees_) {
      changes_.clear();
      SsspUpdateStats update;
      switch (kind) {
        case 0:
          update = tree.on_edge_added(graph, u, v, new_ms, changes_, pendant_);
          break;
        case 1:
          update = tree.on_edge_removed(graph, u, v, changes_, pendant_);
          break;
        default:
          update = tree.on_edge_latency_changed(graph, u, v, old_ms, new_ms,
                                                changes_, pendant_);
          break;
      }
      affected += update.nodes_affected;
      // A pendant's delay moves with its anchor's — unless adding its
      // access latency rounds the change away.
      for (const DistanceChange& change : changes_) {
        mark_dirty(change.node);
        if (pendants_dirty_in_[change.node] == event) continue;
        const double now = tree.distance_ms(change.node);
        bool clean_left = false;
        for (const Adjacency& adj : graph.neighbors(change.node)) {
          if (pendant_[adj.to] == 0 || in_dirty_[adj.to] != 0) continue;
          if (change.old_ms + adj.props.latency_ms !=
              now + adj.props.latency_ms) {
            mark_dirty(adj.to);
          } else {
            clean_left = true;
          }
        }
        if (!clean_left) pendants_dirty_in_[change.node] = event;
      }
    }
  }
  ++stats_.epoch;
  stats_.nodes_affected += affected;
  stats_.nodes_saved += full_cost > affected ? full_cost - affected : 0;
  for (MutationListener* listener : listeners_) {
    listener->on_mutation(kind, u, v, old_ms, new_ms);
  }
}

void IncrementalDelayEngine::add_listener(MutationListener* listener) {
  if (listener != nullptr) listeners_.push_back(listener);
}

void IncrementalDelayEngine::remove_listener(
    MutationListener* listener) noexcept {
  std::erase(listeners_, listener);
}

EdgeProps IncrementalDelayEngine::fail_link(NodeId u, NodeId v) {
  const EdgeProps props = net_->fail_link(u, v);
  ++stats_.link_updates;
  apply_mutation(1, u, v, props.latency_ms, kUnreachable);
  return props;
}

EdgeProps IncrementalDelayEngine::restore_link(NodeId u, NodeId v) {
  const EdgeProps props = net_->restore_link(u, v);
  ++stats_.link_updates;
  apply_mutation(0, u, v, kUnreachable, props.latency_ms);
  return props;
}

EdgeProps IncrementalDelayEngine::set_link_latency(NodeId u, NodeId v,
                                                   double latency_ms) {
  const EdgeProps previous = net_->set_link_latency(u, v, latency_ms);
  ++stats_.link_updates;
  apply_mutation(2, u, v, previous.latency_ms, latency_ms);
  return previous;
}

NodeId IncrementalDelayEngine::acquire_node(Point2D pos, NodeKind kind) {
  const NodeId node = net_->acquire_node(pos, kind);
  sync_node_count();
  return node;
}

void IncrementalDelayEngine::add_link(NodeId u, NodeId v, EdgeProps props) {
  net_->graph.add_edge(u, v, props);
  apply_mutation(0, u, v, kUnreachable, props.latency_ms);
}

bool IncrementalDelayEngine::remove_link(NodeId u, NodeId v) {
  if (!net_->graph.remove_edge(u, v)) return false;
  apply_mutation(1, u, v, kUnreachable, kUnreachable);
  return true;
}

void IncrementalDelayEngine::release_node(NodeId node) {
  // Peel the incident edges one at a time so each tree repair sees a graph
  // consistent with its input; the node ends isolated and release_node()
  // then only recycles the id.
  while (!net_->graph.neighbors(node).empty()) {
    const NodeId other = net_->graph.neighbors(node).front().to;
    remove_link(node, other);
  }
  net_->release_node(node);
}

std::size_t IncrementalDelayEngine::drain_dirty(std::vector<NodeId>& out) {
  const std::size_t count = dirty_.size();
  for (const NodeId node : dirty_) in_dirty_[node] = 0;
  out.insert(out.end(), dirty_.begin(), dirty_.end());
  dirty_.clear();
  return count;
}

std::size_t IncrementalDelayEngine::drain_reclassified(
    std::vector<NodeId>& out) {
  const std::size_t count = reclassified_.size();
  for (const NodeId node : reclassified_) in_reclassified_[node] = 0;
  out.insert(out.end(), reclassified_.begin(), reclassified_.end());
  reclassified_.clear();
  return count;
}

void IncrementalDelayEngine::rebuild() {
  build_trees();
  ++stats_.epoch;
  for (NodeId node = 0; node < net_->graph.node_count(); ++node) {
    mark_dirty(node);
    mark_reclassified(node);
  }
  for (MutationListener* listener : listeners_) listener->on_rebuild();
}

void IncrementalDelayEngine::check_invariants(
    std::size_t spot_check_trees) const {
  TACC_CHECK_INVARIANT(trees_.size() == net_->edge_count(),
                       "one tree per edge server");
  TACC_CHECK_INVARIANT(in_dirty_.size() >= net_->graph.node_count(),
                       "dirty bitmap must cover every node");

  // Dirty list and membership bitmap must describe the same set.
  std::size_t flagged = 0;
  for (const std::uint8_t flag : in_dirty_) flagged += flag != 0 ? 1 : 0;
  TACC_CHECK_INVARIANT(flagged == dirty_.size(),
                       "dirty list and bitmap disagree");
  for (const NodeId node : dirty_) {
    TACC_CHECK_INVARIANT(node < in_dirty_.size() && in_dirty_[node] != 0,
                         "dirty node not flagged in the bitmap");
  }
  std::size_t listed = 0;
  for (const std::uint8_t flag : in_reclassified_) listed += flag != 0 ? 1 : 0;
  TACC_CHECK_INVARIANT(listed == reclassified_.size(),
                       "reclassified list and bitmap disagree");
  for (const NodeId node : reclassified_) {
    TACC_CHECK_INVARIANT(
        node < in_reclassified_.size() && in_reclassified_[node] != 0,
        "reclassified node not flagged in the bitmap");
  }

  for (std::size_t j = 0; j < trees_.size(); ++j) {
    TACC_CHECK_INVARIANT(trees_[j].source() == net_->edge_nodes[j],
                         "tree rooted at the wrong server node");
    TACC_CHECK_INVARIANT(trees_[j].node_count() >= net_->graph.node_count(),
                         "tree not grown to the graph's node count");
  }

  // Pendants: single-homed devices hanging off a tree node, held by no tree.
  TACC_CHECK_INVARIANT(pendant_.size() >= net_->graph.node_count(),
                       "pendant mask must cover every node");
  for (NodeId node = 0; node < net_->graph.node_count(); ++node) {
    if (pendant_[node] == 0) continue;
    const std::string where = "pendant " + std::to_string(node);
    TACC_CHECK_INVARIANT(is_iot_device(*net_, node),
                         where + " is not an IoT device");
    TACC_CHECK_INVARIANT(net_->graph.degree(node) == 1,
                         where + " does not have exactly one link");
    const Adjacency& link = net_->graph.neighbors(node).front();
    TACC_CHECK_INVARIANT(pendant_[link.to] == 0,
                         where + " hangs off another pendant");
    TACC_CHECK_INVARIANT(link.to == pendant_link_[node].anchor &&
                             link.props.latency_ms ==
                                 pendant_link_[node].latency_ms,
                         where + "'s link changed behind the engine");
    for (const DynamicSsspTree& tree : trees_) {
      TACC_CHECK_INVARIANT(tree.distance_ms(node) == kUnreachable,
                           where + " holds a tree distance");
    }
  }

  // Exactness spot-check vs from-scratch Dijkstra through delay_ms(), so
  // pendants are covered too; rotated by epoch so repeated calls (e.g.
  // sampled bench epochs) sweep across servers.
  const std::size_t checks = std::min(spot_check_trees, trees_.size());
  for (std::size_t k = 0; k < checks; ++k) {
    const std::size_t j =
        (static_cast<std::size_t>(stats_.epoch) + k) % trees_.size();
    const ShortestPathTree reference =
        dijkstra(net_->graph, net_->edge_nodes[j]);
    for (NodeId node = 0; node < net_->graph.node_count(); ++node) {
      const double expected = reference.distance_ms[node];
      const double actual = delay_ms(j, node);
      // Bitwise agreement, except both-unreachable compares equal.
      TACC_CHECK_INVARIANT(
          actual == expected ||
              (actual == kUnreachable && expected == kUnreachable),
          "server " + std::to_string(j) +
              " delay diverged from Dijkstra at node " +
              std::to_string(node));
    }
  }
}

std::size_t IncrementalDelayEngine::scratch_bytes() const noexcept {
  std::size_t bytes = (dirty_.capacity() + reclassified_.capacity()) *
                          sizeof(NodeId) +
                      in_dirty_.capacity() + in_reclassified_.capacity() +
                      pendant_.capacity() +
                      pendant_link_.capacity() * sizeof(PendantLink) +
                      changes_.capacity() * sizeof(DistanceChange) +
                      pendants_dirty_in_.capacity() * sizeof(std::uint64_t);
  for (const DynamicSsspTree& tree : trees_) bytes += tree.scratch_bytes();
  return bytes;
}

}  // namespace tacc::topo::incr
