#include "topology/oracle/landmark.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace tacc::topo::oracle {

namespace {

/// Absolute slack on the envelope acceptance test. Covers floating-point
/// rounding of path sums (computed shortest paths satisfy the triangle
/// inequality only up to summation order), so eps=0 still accepts envelopes
/// that are tight to the last ulp.
constexpr double kAcceptSlackMs = 1e-9;

constexpr std::uint64_t kLandmarkTag = 0x1A4DAA2CULL;

}  // namespace

LandmarkOracle::LandmarkOracle(incr::IncrementalDelayEngine& engine,
                               const OracleConfig& config)
    : LandmarkOracle(engine.network(), config) {
  engine_ = &engine;
  engine_->add_listener(this);
}

LandmarkOracle::LandmarkOracle(const NetworkTopology& net,
                               const OracleConfig& config)
    : DelayOracle(RowEncoding::kBounded, net.edge_count(), config.hot_rows),
      net_(&net),
      engine_(nullptr),
      config_(config),
      routers_(net.router_count()),
      server_nodes_(net.edge_nodes) {
  is_server_node_.assign(net_->graph.node_count(), 0);
  for (const NodeId node : server_nodes_) is_server_node_[node] = 1;
  select_landmarks();
}

LandmarkOracle::~LandmarkOracle() {
  if (engine_ != nullptr) engine_->remove_listener(this);
}

std::string_view LandmarkOracle::name() const noexcept { return "landmark"; }

void LandmarkOracle::select_landmarks() {
  const Graph& graph = net_->graph;
  TACC_REQUIRE(routers_ > 0, "landmark selection needs a router");
  const std::size_t count =
      std::min(std::max<std::size_t>(config_.landmarks, 1), routers_);

  landmark_nodes_.clear();
  landmark_trees_.clear();
  landmark_nodes_.reserve(count);
  landmark_trees_.reserve(count);

  // Farthest-point sampling: seed-deterministic first pick, then repeatedly
  // take the candidate farthest from the chosen set (unreachable first,
  // lowest id among ties — candidates are id-ordered and ties keep the
  // first winner). The k construction Dijkstras double as the landmark
  // trees, so selection costs nothing extra.
  util::Rng rng(config_.seed);
  std::vector<double> closest(routers_, kUnreachable);
  std::vector<std::uint8_t> chosen(routers_, 0);
  auto next = static_cast<NodeId>(rng.index(routers_));
  for (std::size_t i = 0; i < count; ++i) {
    landmark_nodes_.push_back(next);
    chosen[next] = 1;
    landmark_trees_.emplace_back(graph, routers_, next);
    const std::vector<double>& dist = landmark_trees_.back().distances();
    for (NodeId node = 0; node < routers_; ++node) {
      closest[node] = std::min(closest[node], dist[node]);
    }
    if (i + 1 == count) break;
    NodeId best = kInvalidNode;
    double best_dist = -1.0;
    for (NodeId node = 0; node < routers_; ++node) {
      if (chosen[node] != 0) continue;
      if (best == kInvalidNode || closest[node] > best_dist) {
        best = node;
        best_dist = closest[node];
      }
    }
    TACC_ENSURE(best != kInvalidNode, "ran out of landmark candidates");
    next = best;
  }
}

void LandmarkOracle::bind_row(std::size_t row, NodeId node) {
  // A fresh binding supersedes both the resident values and any queued
  // invalidation for this row slot.
  DelayOracle::bind_row(row, node);
  if (row_has_exact_.size() < store_.row_count()) {
    row_has_exact_.resize(store_.row_count(), 0);
  }
  if (row_pending_.size() < store_.row_count()) {
    row_pending_.resize(store_.row_count(), 0);
  }
  row_has_exact_[row] = 0;
  row_pending_[row] = 0;
}

void LandmarkOracle::unbind_row(std::size_t row) {
  if (!store_.unbind(row)) return;
  row_has_exact_[row] = 0;
  if (row < row_pending_.size()) row_pending_[row] = 0;
}

bool LandmarkOracle::accept(const DelayBounds& bounds) const noexcept {
  if (bounds.hi_ms == kUnreachable) {
    return bounds.lo_ms == kUnreachable;  // certified unreachable
  }
  return bounds.hi_ms <=
         bounds.lo_ms * (1.0 + config_.max_rel_error) + kAcceptSlackMs;
}

bool LandmarkOracle::single_homed(NodeId node) const {
  if (node < routers_) return true;
  const std::span<const Adjacency> links = net_->graph.neighbors(node);
  return links.size() == 1 && links.front().to < routers_;
}

DelayBounds LandmarkOracle::envelope(NodeId node, NodeId server_node) const {
  const Graph& graph = net_->graph;
  // A host with several links may join routers that are far apart by
  // routers alone, which breaks the triangle inequality the lower bound
  // (and the unreachability test) rest on. The upper bound still holds:
  // node -> L -> server is a path only routers relay.
  const bool metric = single_homed(node) && single_homed(server_node);
  double lo = 0.0;
  double hi = kUnreachable;
  for (const incr::DynamicSsspTree& tree : landmark_trees_) {
    const double to_node = tree.delay_ms(graph, node);
    const double to_server = tree.delay_ms(graph, server_node);
    if (!metric) {
      hi = std::min(hi, to_node + to_server);
      continue;
    }
    if (to_node == kUnreachable && to_server == kUnreachable) continue;
    if (to_node == kUnreachable || to_server == kUnreachable) {
      // The landmark reaches exactly one endpoint, so (undirected graph)
      // the endpoints are in different components: certified unreachable.
      return {kUnreachable, kUnreachable, true};
    }
    lo = std::max(lo, std::fabs(to_node - to_server));
    hi = std::min(hi, to_node + to_server);
  }
  // No informative landmark leaves the trivial-but-valid [0, inf) envelope,
  // which never passes accept() and therefore falls back to exact.
  return {lo, hi, true};
}

std::uint64_t LandmarkOracle::fill_row(std::size_t row, NodeId node,
                                       std::span<double> out) const {
  bool has_exact = false;
  ShortestPathTree fallback;
  bool fallback_ready = false;
  for (std::size_t j = 0; j < server_nodes_.size(); ++j) {
    const DelayBounds bounds = envelope(node, server_nodes_[j]);
    if (bounds.hi_ms == kUnreachable) {
      ++stats_.width_hist[bounds.lo_ms == kUnreachable ? 0 : 7];
    } else {
      const double width = bounds.hi_ms - bounds.lo_ms;
      ++stats_.width_hist[width_bucket(width /
                                       std::max(bounds.lo_ms, 1e-9))];
    }
    if (accept(bounds)) {
      out[j] = bounds.hi_ms;
      ++stats_.bound_hits;
      continue;
    }
    ++stats_.exact_fallbacks;
    has_exact = true;
    if (engine_ != nullptr) {
      out[j] = engine_->delay_ms(j, node);
    } else {
      // One Dijkstra from the device node serves every loose entry of the
      // row — the standalone fallback cost is per ROW, not per entry.
      if (!fallback_ready) {
        fallback = dijkstra(net_->graph, node, routers_);
        fallback_ready = true;
      }
      out[j] = fallback.distance_ms[server_nodes_[j]];
    }
  }
  if (row < row_has_exact_.size()) row_has_exact_[row] = has_exact ? 1 : 0;
  return epoch();
}

DelayBounds LandmarkOracle::bounds_ms(std::size_t row,
                                      std::size_t server) const {
  const NodeId node = store_.row_node(row);
  TACC_REQUIRE(node != kInvalidNode, "bounds for an unbound oracle row");
  return envelope(node, server_nodes_.at(server));
}

void LandmarkOracle::apply_mutation(int kind, NodeId u, NodeId v,
                                    double old_ms, double new_ms) {
  TACC_REQUIRE(engine_ == nullptr,
               "attached oracles receive mutations via the engine listener");
  repair_landmarks(kind, u, v, old_ms, new_ms);
}

void LandmarkOracle::on_mutation(int kind, NodeId u, NodeId v, double old_ms,
                                 double new_ms) {
  repair_landmarks(kind, u, v, old_ms, new_ms);
}

void LandmarkOracle::repair_landmarks(int kind, NodeId u, NodeId v,
                                      double old_ms, double new_ms) {
  const Graph& graph = net_->graph;
  changed_scratch_.clear();
  for (incr::DynamicSsspTree& tree : landmark_trees_) {
    switch (kind) {
      case 0:
        tree.on_edge_added(graph, u, v, new_ms, changed_scratch_);
        break;
      case 1:
        tree.on_edge_removed(graph, u, v, changed_scratch_);
        break;
      default:
        tree.on_edge_latency_changed(graph, u, v, old_ms, new_ms,
                                     changed_scratch_);
        break;
    }
  }
  if (engine_ != nullptr) return;  // the engine dirty set drives invalidation

  ++own_epoch_;
  const auto invalidate = [this](NodeId node) {
    if (node < is_server_node_.size() && is_server_node_[node] != 0) {
      // A server's landmark vector moved: every row holds an entry whose
      // envelope involved that vector, so everything resident is suspect.
      all_pending_ = true;
    }
    const std::size_t row = store_.row_of(node);
    if (row != RowStore::kUnbound) mark_pending(row);
  };
  // A host's landmark vector moves with its own links and with the
  // routers it hangs off.
  for (const NodeId end : {u, v}) {
    if (end >= routers_) invalidate(end);
  }
  for (const incr::DistanceChange& change : changed_scratch_) {
    invalidate(change.node);
    for (const Adjacency& adj : graph.neighbors(change.node)) {
      if (adj.to >= routers_) invalidate(adj.to);
    }
  }
  // Exact-fallback values carry no envelope that current vectors certify,
  // so rows holding any are conservatively re-dirtied on every mutation.
  for (std::size_t row = 0; row < row_has_exact_.size(); ++row) {
    if (row_has_exact_[row] != 0) mark_pending(row);
  }
}

void LandmarkOracle::mark_pending(std::size_t row) {
  if (row >= row_pending_.size()) row_pending_.resize(row + 1, 0);
  if (row_pending_[row] != 0) return;
  row_pending_[row] = 1;
  pending_rows_.push_back(row);
}

std::size_t LandmarkOracle::refresh() {
  drain_scratch_.clear();
  if (engine_ != nullptr) {
    engine_->drain_dirty(drain_scratch_);
    return store_.refresh(drain_scratch_);
  }
  if (all_pending_) {
    for (const std::size_t row : pending_rows_) row_pending_[row] = 0;
    pending_rows_.clear();
    all_pending_ = false;
    std::fill(row_has_exact_.begin(), row_has_exact_.end(), 0);
    store_.refresh_all();
    return store_.bound_count();
  }
  for (const std::size_t row : pending_rows_) {
    if (row_pending_[row] == 0) continue;  // superseded by a rebind
    row_pending_[row] = 0;
    row_has_exact_[row] = 0;
    drain_scratch_.push_back(store_.row_node(row));
  }
  pending_rows_.clear();
  return store_.refresh(drain_scratch_);
}

void LandmarkOracle::refresh_all() {
  if (engine_ != nullptr) {
    drain_scratch_.clear();
    engine_->drain_dirty(drain_scratch_);
  } else {
    for (const std::size_t row : pending_rows_) row_pending_[row] = 0;
    pending_rows_.clear();
    all_pending_ = false;
    ++own_epoch_;
  }
  std::fill(row_has_exact_.begin(), row_has_exact_.end(), 0);
  store_.refresh_all();
}

std::uint64_t LandmarkOracle::epoch() const {
  return engine_ != nullptr ? engine_->epoch() : own_epoch_;
}

std::uint64_t LandmarkOracle::fingerprint() const {
  // Values are never all materialized: the store digests the backend tag,
  // the epoch, the landmark set and the bindings (see oracle.hpp).
  return store_.fingerprint(epoch(), kLandmarkTag, landmark_nodes_);
}

std::size_t LandmarkOracle::resident_bytes() const {
  std::size_t bytes = store_.resident_bytes() + row_has_exact_.capacity() +
                      row_pending_.capacity() + is_server_node_.capacity() +
                      pending_rows_.capacity() * sizeof(std::size_t) +
                      server_nodes_.capacity() * sizeof(NodeId) +
                      landmark_nodes_.capacity() * sizeof(NodeId);
  for (const incr::DynamicSsspTree& tree : landmark_trees_) {
    bytes += tree.router_count() * (sizeof(double) + sizeof(NodeId));
    bytes += tree.scratch_bytes();
  }
  return bytes;
}

void LandmarkOracle::check_invariants() const {
  store_.check_invariants(epoch());

  TACC_CHECK_INVARIANT(!landmark_nodes_.empty() &&
                           landmark_nodes_.size() == landmark_trees_.size(),
                       "one tree per landmark, at least one landmark");
  for (std::size_t k = 0; k < landmark_nodes_.size(); ++k) {
    const NodeId landmark = landmark_nodes_[k];
    TACC_CHECK_INVARIANT(landmark < net_->graph.node_count() &&
                             !net_->graph.node_released(landmark),
                         "landmark node no longer live: node " +
                             std::to_string(landmark));
    TACC_CHECK_INVARIANT(landmark_trees_[k].source() == landmark,
                         "landmark tree rooted at the wrong node");
  }

  // Pending-queue bookkeeping: every flagged row must be queued (queued
  // rows may have a cleared flag — a rebind supersedes the invalidation).
  std::vector<std::uint8_t> queued(row_pending_.size(), 0);
  for (const std::size_t row : pending_rows_) {
    TACC_CHECK_INVARIANT(row < row_pending_.size(),
                         "pending row beyond the flag bitmap");
    queued[row] = 1;
  }
  for (std::size_t row = 0; row < row_pending_.size(); ++row) {
    TACC_CHECK_INVARIANT(row_pending_[row] == 0 || queued[row] != 0,
                         "row flagged pending but not queued: row " +
                             std::to_string(row));
  }

  // Landmark coherence: one tree (rotated by epoch so successive calls
  // sweep the set) compared bit-for-bit against a from-scratch no-relay
  // Dijkstra — the incremental repairs must be indistinguishable from a
  // rebuild.
  const std::size_t k =
      static_cast<std::size_t>(epoch()) % landmark_trees_.size();
  const ShortestPathTree reference =
      dijkstra(net_->graph, landmark_nodes_[k], routers_);
  for (NodeId node = 0; node < net_->graph.node_count(); ++node) {
    const double actual = landmark_trees_[k].delay_ms(net_->graph, node);
    const double expected = reference.distance_ms[node];
    TACC_CHECK_INVARIANT(
        actual == expected,
        "landmark tree " + std::to_string(k) +
            " diverged from Dijkstra at node " + std::to_string(node));
  }

  // Sampled envelope containment: one bound row (rotated by epoch) checked
  // against true distances. Tiny slack covers summation-order rounding.
  if (store_.bound_count() > 0) {
    const std::size_t rows = store_.row_count();
    std::size_t row = static_cast<std::size_t>(epoch()) % rows;
    for (std::size_t step = 0; step < rows; ++step, row = (row + 1) % rows) {
      if (store_.row_node(row) != kInvalidNode) break;
    }
    const NodeId node = store_.row_node(row);
    const ShortestPathTree truth = dijkstra(net_->graph, node, routers_);
    for (std::size_t j = 0; j < server_nodes_.size(); ++j) {
      const double exact = truth.distance_ms[server_nodes_[j]];
      const DelayBounds bounds = envelope(node, server_nodes_[j]);
      if (exact == kUnreachable) {
        TACC_CHECK_INVARIANT(bounds.hi_ms == kUnreachable,
                             "finite upper bound for an unreachable server");
        continue;
      }
      const double slack = 1e-9 * (1.0 + exact);
      TACC_CHECK_INVARIANT(
          bounds.lo_ms <= exact + slack && exact <= bounds.hi_ms + slack,
          "envelope does not contain the exact delay: row " +
              std::to_string(row) + " server " + std::to_string(j));
    }
  }
}

void LandmarkOracle::on_rebuild() {
  // The engine rebuilt from scratch (out-of-band topology edits): the
  // incremental-repair premise is void, so rebuild the landmark trees too.
  // This is the recovery hatch, not the churn path — bench_m6 gates that it
  // never fires mid-run (stats().rebuilds == 0).
  ++stats_.rebuilds;
  bool landmarks_live = !landmark_nodes_.empty();
  for (const NodeId landmark : landmark_nodes_) {
    if (landmark >= net_->graph.node_count() ||
        net_->graph.node_released(landmark)) {
      landmarks_live = false;
      break;
    }
  }
  if (landmarks_live) {
    for (std::size_t k = 0; k < landmark_nodes_.size(); ++k) {
      landmark_trees_[k] = incr::DynamicSsspTree(
          net_->graph, routers_, landmark_nodes_[k]);
    }
  } else {
    select_landmarks();
  }
  store_.invalidate_all();
  std::fill(row_has_exact_.begin(), row_has_exact_.end(), 0);
}

}  // namespace tacc::topo::oracle
