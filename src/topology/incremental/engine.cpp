#include "topology/incremental/engine.hpp"

#include <algorithm>
#include <string>

#include "util/contracts.hpp"

namespace tacc::topo::incr {

IncrementalDelayEngine::IncrementalDelayEngine(NetworkTopology& net)
    : net_(&net) {
  build_trees();
}

void IncrementalDelayEngine::build_trees() {
  const Graph& graph = net_->graph;
  router_count_ = net_->router_count();
  trees_.clear();
  trees_.reserve(net_->edge_count());
  for (const NodeId server : net_->edge_nodes) {
    trees_.emplace_back(graph, router_count_, server);
  }
  in_dirty_.resize(router_count_, 0);
}

void IncrementalDelayEngine::delay_row(NodeId router,
                                       std::span<double> out) const {
  TACC_REQUIRE(out.size() == trees_.size() && is_router(router),
               "a key row has one slot per server and keys a router");
  for (std::size_t j = 0; j < out.size(); ++j) {
    out[j] = trees_[j].distance_ms(router);
  }
}

void IncrementalDelayEngine::mark_dirty(NodeId router) {
  if (in_dirty_[router] != 0) return;
  in_dirty_[router] = 1;
  dirty_.push_back(router);
}

void IncrementalDelayEngine::apply_mutation(int kind, NodeId u, NodeId v,
                                            double old_ms, double new_ms) {
  const Graph& graph = net_->graph;
  // A full recompute would settle every router once per tree (the trees
  // hold routers only); the difference against what the incremental repair
  // actually touched is the work saved.
  const std::uint64_t full_cost =
      static_cast<std::uint64_t>(trees_.size()) * router_count_;
  std::uint64_t affected = 0;
  // Hosts never relay: only a backbone link, or a server's own access link
  // in that server's tree, can move a router's distance.
  const bool backbone = is_router(u) && is_router(v);
  for (DynamicSsspTree& tree : trees_) {
    if (!backbone && tree.source() != u && tree.source() != v) continue;
    changes_.clear();
    switch (kind) {
      case 0:
        affected += tree.on_edge_added(graph, u, v, new_ms, changes_);
        break;
      case 1:
        affected += tree.on_edge_removed(graph, u, v, changes_);
        break;
      default:
        affected += tree.on_edge_latency_changed(graph, u, v, old_ms, new_ms,
                                                 changes_);
        break;
    }
    for (const NodeId router : changes_) mark_dirty(router);
  }
  ++stats_.epoch;
  stats_.nodes_affected += affected;
  stats_.nodes_saved += full_cost > affected ? full_cost - affected : 0;
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

void IncrementalDelayEngine::attach_host(std::size_t slot, NodeId router,
                                         EdgeProps access, Point2D position) {
  TACC_REQUIRE(is_router(router) && access.latency_ms > 0.0,
               "a device takes one access link, to a router");
  net_->hosts.attach(slot, router, access, position);
  ++stats_.epoch;
}

void IncrementalDelayEngine::detach_host(std::size_t slot) {
  net_->hosts.detach(slot);
  ++stats_.epoch;
}

std::size_t IncrementalDelayEngine::drain_dirty(std::vector<NodeId>& out) {
  const std::size_t count = dirty_.size();
  for (const NodeId node : dirty_) in_dirty_[node] = 0;
  out.insert(out.end(), dirty_.begin(), dirty_.end());
  dirty_.clear();
  return count;
}

void IncrementalDelayEngine::rebuild() {
  build_trees();
  ++stats_.epoch;
  for (NodeId router = 0; router < router_count_; ++router) {
    mark_dirty(router);
  }
}

void IncrementalDelayEngine::check_invariants(
    std::size_t spot_check_trees) const {
  TACC_CHECK_INVARIANT(trees_.size() == net_->edge_count(),
                       "one tree per edge server");
  TACC_CHECK_INVARIANT(net_->router_count() == router_count_,
                       "the router prefix changed behind the engine");

  // Dirty list and membership bitmap must describe the same set.
  std::size_t flagged = 0;
  for (const std::uint8_t flag : in_dirty_) flagged += flag != 0 ? 1 : 0;
  TACC_CHECK_INVARIANT(flagged == dirty_.size(),
                       "dirty list and bitmap disagree");
  for (const NodeId node : dirty_) {
    TACC_CHECK_INVARIANT(is_dirty(node),
                         "dirty node not flagged in the bitmap");
  }

  for (std::size_t j = 0; j < trees_.size(); ++j) {
    TACC_CHECK_INVARIANT(trees_[j].source() == net_->edge_nodes[j],
                         "tree rooted at the wrong server node");
    TACC_CHECK_INVARIANT(trees_[j].router_count() == router_count_,
                         "tree not sized to the routers");
  }

  // Exactness spot-check vs a from-scratch no-relay Dijkstra; rotated by
  // epoch so repeated calls (e.g. sampled bench epochs) sweep across
  // servers.
  const std::size_t checks = std::min(spot_check_trees, trees_.size());
  for (std::size_t k = 0; k < checks; ++k) {
    const std::size_t j =
        (static_cast<std::size_t>(stats_.epoch) + k) % trees_.size();
    const ShortestPathTree reference =
        dijkstra(net_->graph, net_->edge_nodes[j], router_count_);
    for (NodeId router = 0; router < router_count_; ++router) {
      // Bitwise agreement (inf == inf, so unreachable matches too).
      TACC_CHECK_INVARIANT(
          delay_ms(j, router) == reference.distance_ms[router],
          "server " + std::to_string(j) +
              " delay diverged from Dijkstra at router " +
              std::to_string(router));
    }
  }
}

std::size_t IncrementalDelayEngine::scratch_bytes() const noexcept {
  std::size_t bytes = (dirty_.capacity() + changes_.capacity()) *
                          sizeof(NodeId) +
                      in_dirty_.capacity();
  for (const DynamicSsspTree& tree : trees_) bytes += tree.scratch_bytes();
  return bytes;
}

}  // namespace tacc::topo::incr
