// LandmarkOracle: landmark/ALT delay estimation with certified envelopes.
// Thread safety: none (the row store mutates on const reads) — externally
// serialized by the owner, i.e. the session cluster mutex in the serving
// layer; see oracle.hpp.
//
// k landmarks are chosen over the ROUTER nodes (stable across device churn)
// by seed-deterministic farthest-point sampling: the first landmark is drawn
// from util::Rng(seed), each next one maximizes its shortest-path distance
// to the chosen set (unreachable first, lowest node id breaking ties). Each
// landmark owns a routers-only DynamicSsspTree, repaired incrementally per
// link mutation — never rebuilt mid-run (OracleStats::rebuilds, gated == 0
// by bench_m6). A host's landmark distance is derived from its links, as
// the engine derives its server delays.
//
// Queries use the classic ALT triangle bounds for an undirected graph:
//     lo = max_L |d(L,a) - d(L,s)|      hi = min_L d(L,a) + d(L,s)
// which bracket the true delay whenever the landmark vectors are current and
// both endpoints are single-homed (with a multi-homed endpoint the no-relay
// delay need not obey the triangle inequality, so lo drops to 0 and the
// entry falls back to exact).
// If exactly one of d(L,a), d(L,s) is infinite, a and s are in different
// components and the oracle certifies unreachability. An envelope is served
// (value = hi) when hi <= lo·(1+eps) + slack, so a served entry e satisfies
//     exact <= e <= (1+eps)·exact + slack;
// looser envelopes FALL BACK to an exact value: an O(1) read from the
// engine's server tree when attached, or one no-relay Dijkstra from the
// device node (filling the whole row) when standalone.
//
// Staleness/invalidation (the dirty-set contract):
//  - Attached (inside a DynamicCluster): the engine's dirty set is the
//    oracle's invalidation source — a bound-served value stays certified
//    while the node's true distances are unchanged, and any change lands
//    the node in the dirty set. Landmark trees follow the engine's mutation
//    funnel via MutationListener.
//  - Standalone (no per-server trees; the million-device mode): callers
//    mirror each graph mutation through apply_mutation(). A row goes stale
//    only if its node's landmark vector may have moved (a router it hangs
//    off moved, or one of its own links changed), if any SERVER's landmark
//    vector may have (every row has an entry against that server), or if the
//    row holds exact-fallback entries (exact values carry no envelope, so
//    they are conservatively re-dirtied on every mutation). refresh()
//    drops exactly the resident rows in that set; everything else keeps
//    serving certified values.
//
// Rows live in a bounded RowStore (rowstore.hpp) and are computed lazily on
// first touch, so residency is O(landmarks·V + store capacity), not O(N·M)
// — the bench_m6 memory gate.
#pragma once

#include <span>
#include <vector>

#include "topology/oracle/oracle.hpp"
#include "topology/shortest_paths.hpp"

namespace tacc::topo::oracle {

class LandmarkOracle final : public DelayOracle, private incr::MutationListener {
 public:
  /// Attached mode: registers as a mutation listener on `engine` (which
  /// must outlive the oracle) and uses its trees for exact fallbacks.
  LandmarkOracle(incr::IncrementalDelayEngine& engine,
                 const OracleConfig& config);
  /// Standalone mode: no per-server trees — `net` must outlive the oracle
  /// and every mutation must be mirrored through apply_mutation().
  LandmarkOracle(const NetworkTopology& net, const OracleConfig& config);
  ~LandmarkOracle() override;

  [[nodiscard]] std::string_view name() const noexcept override;
  void bind_row(std::size_t row, NodeId node) override;
  void unbind_row(std::size_t row) override;
  [[nodiscard]] DelayBounds bounds_ms(std::size_t row,
                                      std::size_t server) const override;
  std::size_t refresh() override;
  void refresh_all() override;
  [[nodiscard]] std::uint64_t epoch() const override;
  [[nodiscard]] std::uint64_t fingerprint() const override;
  [[nodiscard]] std::size_t resident_bytes() const override;
  /// Deep validation: store/pending bookkeeping, plus landmark
  /// coherence — one epoch-rotated landmark tree compared bit-for-bit
  /// against a fresh Dijkstra, and one sampled bound row checked for
  /// envelope containment of the true distances. Cold path (two Dijkstras).
  void check_invariants() const override;

  /// Standalone mode: the graph ALREADY reflects the mutation (engine
  /// apply_to_trees semantics; kind 0 added, 1 removed, 2 reweighted).
  /// Repairs every landmark tree incrementally and queues invalidations
  /// for the next refresh(). Must not be called in attached mode (the
  /// engine's listener hook feeds mutations there).
  void apply_mutation(int kind, NodeId u, NodeId v, double old_ms,
                      double new_ms);

  [[nodiscard]] const std::vector<NodeId>& landmark_nodes() const noexcept {
    return landmark_nodes_;
  }

 private:
  void on_mutation(int kind, NodeId u, NodeId v, double old_ms,
                   double new_ms) override;
  void on_rebuild() override;

  /// Farthest-point sampling over routers + one routers-only Dijkstra tree
  /// per landmark.
  void select_landmarks();
  /// Incremental repair of every landmark tree; in standalone mode also
  /// queues row invalidations derived from the changed-node sets.
  void repair_landmarks(int kind, NodeId u, NodeId v, double old_ms,
                        double new_ms);
  void mark_pending(std::size_t row);
  [[nodiscard]] bool accept(const DelayBounds& bounds) const noexcept;
  /// A router, or a host with one link, to a router.
  [[nodiscard]] bool single_homed(NodeId node) const;
  [[nodiscard]] DelayBounds envelope(NodeId node, NodeId server_node) const;
  /// Bounds + fallbacks for every server; records stats and whether the
  /// row holds exact-fallback entries.
  std::uint64_t fill_row(std::size_t row, NodeId node,
                         std::span<double> out) const override;

  const NetworkTopology* net_;
  incr::IncrementalDelayEngine* engine_;  ///< nullptr in standalone mode
  OracleConfig config_;
  std::size_t routers_;  ///< routers are the node ids [0, routers_)
  std::vector<NodeId> server_nodes_;
  std::vector<std::uint8_t> is_server_node_;  ///< by node id
  std::vector<NodeId> landmark_nodes_;
  std::vector<incr::DynamicSsspTree> landmark_trees_;

  // mutable: set by logically-const fills (externally synchronized — see
  // oracle.hpp).
  mutable std::vector<std::uint8_t> row_has_exact_;  ///< per row

  // Standalone invalidation queue (refresh() drains it).
  std::vector<std::size_t> pending_rows_;
  std::vector<std::uint8_t> row_pending_;  ///< per row: already queued?
  bool all_pending_ = false;  ///< a server's landmark vector moved

  std::vector<incr::DistanceChange> changed_scratch_;
  std::vector<NodeId> drain_scratch_;
  std::uint64_t own_epoch_ = 0;  ///< standalone epoch (attached: engine's)
};

}  // namespace tacc::topo::oracle
