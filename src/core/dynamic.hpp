// Dynamic reconfiguration: devices join, move and leave a running cluster;
// edge servers fail and recover under it.
//
// Full re-optimization on every arrival is wasteful and churns existing
// sessions; DynamicCluster instead applies an incremental policy — joiners
// get the cheapest feasible server (read from the delay row of the new
// device's anchor router), leavers free their load — with an optional
// bounded rebalance() pass to drain the accumulated suboptimality. This
// implements the "cluster configuration" lifecycle the paper's title refers
// to beyond the one-shot assignment.
//
// The engine is churn-hardened for long horizons:
//  - Slot recycling: device slot k is host-table slot k and delay row k.
//    leave() detaches the slot, and the next join reuses it. Memory
//    footprint tracks *peak* population, not cumulative arrivals.
//  - Stable indices: move()/move_pinned() re-attach in place, so a device
//    keeps its index across handovers (no old-index invalidation).
//  - Incremental delay rows: a join or move writes the device's anchor
//    router and access link into its host-table slot and binds its row,
//    which reads the key row it shares with the other devices of that
//    anchor; no Dijkstra runs. The cluster is the one owner of that
//    binding: the engine reports no device's attachment, so the cluster
//    rebinds the row right after it writes the slot. The engine's trees
//    span the routers only, since hosts never relay, so link churn repairs
//    router distances and rewrites only the key rows whose distances
//    moved.
//  - Incremental objective: the served delay of an active slot is its key
//    row's entry for its server plus its access latency, so the sum splits
//    the same way (shared and per-party terms, as in Gong's delay-optimal
//    edge computing): per (key, server) the count N of active slots reading
//    that key and assigned to that server times the fixed-point key entry,
//    plus one fixed-point latency term per slot. An assignment change moves
//    one count and one latency term; a link update re-multiplies the counts
//    of the moved keys only, never visiting a device, so avg_delay_ms() is
//    O(1) (see there).
//  - Explicit outcomes: join/move return a JoinResult and failure
//    evacuations return an EvacuationReport instead of silently falling
//    back onto an overloaded server.
//
// Slot-reuse caveat: after leave(i), index i is inactive until a later
// join() recycles it for a *new* device; stale indices held across joins
// may therefore alias a different device (classic ABA), just like fd or
// pid reuse.
#pragma once

#include "core/configurator.hpp"
#include "core/move_plan.hpp"
#include "core/scenario.hpp"
#include "topology/oracle/oracle.hpp"

namespace tacc {

/// Outcome of placing one device (join, handover, or evacuation).
struct JoinResult {
  std::size_t device_index = 0;
  std::size_t server = 0;
  /// Placed within capacity on a healthy server.
  bool feasible = false;
  /// No healthy server had room: placed on the least-utilized healthy one,
  /// overloading it. repair() can restore feasibility later.
  bool overload_fallback = false;
  /// Cost of the chosen placement under the cluster's CostModel
  /// (placement_cost(device, server)) — every placement path (join, move,
  /// move_pinned, evacuation) reports through the same scoring so callers
  /// and the re-optimizer compare like with like.
  double cost = 0.0;
};

/// Aggregate outcome of draining a failed server.
struct EvacuationReport {
  std::size_t evacuated = 0;   ///< devices relocated off the server
  std::size_t overloaded = 0;  ///< of which via the overload fallback
  [[nodiscard]] bool clean() const noexcept { return overloaded == 0; }
};

/// Outcome of one in-place backbone-link mutation.
struct LinkUpdateReport {
  std::uint64_t epoch = 0;           ///< engine epoch after the update
  /// Σ per-tree affected-region sizes (routers examined; hosts, devices
  /// and servers, never enter a tree, so they count nothing).
  std::uint64_t nodes_affected = 0;
  std::uint64_t nodes_saved = 0;     ///< full-recompute visits avoided
  /// Bound device rows whose served delays may have moved: the sum of the
  /// refcounts of the key rows the update rewrote (no device row is
  /// touched).
  std::size_t rows_refreshed = 0;
  double latency_ms = 0.0;           ///< the link's (previous) latency
};

class DynamicCluster {
 public:
  /// Starts from `scenario` configured with `initial` (default: the RL
  /// configuration the paper proposes). Scores subsequent placements with
  /// the default topology-aware cost model.
  DynamicCluster(const Scenario& scenario,
                 Algorithm initial = Algorithm::kQLearning,
                 const AlgorithmOptions& options = {});
  /// Same, but the full ConfigureRequest: the initial solve honours the
  /// request verbatim and the request's CostModel becomes the cluster's
  /// live scoring function (placement_cost()) used by every greedy path
  /// and by the background re-optimizer. kEuclidean has no dynamic
  /// equivalent — the live engine always scores true shortest-path delays
  /// (the ablation only distorts the one-shot solve), so it scores as
  /// kTopologyAware here.
  DynamicCluster(const Scenario& scenario, const ConfigureRequest& request);

  // The incremental delay engine points into net_, so the cluster must stay
  // at one address. Factory-style `return DynamicCluster(...)` still works
  // via guaranteed elision; heap-allocate to store in containers.
  DynamicCluster(const DynamicCluster&) = delete;
  DynamicCluster& operator=(const DynamicCluster&) = delete;

  /// Attaches a new device at its position (recycling a departed device's
  /// slot when available) and assigns it to the cheapest
  /// feasible server. The result carries the index, the server, and whether
  /// the overload fallback fired. Throws std::invalid_argument, before any
  /// state changes, if the demand or the nearest-router distance is not
  /// finite.
  JoinResult join(const workload::IotDevice& device);

  /// Removes a device: frees its load, detaches its host-table slot, and
  /// recycles the slot and its delay row for future joins. Throws if
  /// already inactive.
  void leave(std::size_t device_index);

  // ---- Mobility -------------------------------------------------------------
  /// Radio handover: re-attaches an active device at `new_position` (fresh
  /// access link + recomputed delay row, in place — the index is stable)
  /// and reassigns it to the cheapest feasible server. Like join(), throws
  /// before any state changes if the new position has no finite distance
  /// to a router; so does move_pinned().
  JoinResult move(std::size_t device_index, topo::Point2D new_position);
  /// Same handover but the device stays pinned to its current server — the
  /// "no reconfiguration" baseline that lets mobility experiments measure
  /// how much a static assignment degrades as devices drift. If the pinned
  /// server has failed (deferred evacuation), falls back to the cheapest
  /// feasible healthy server; the result says which server was used.
  JoinResult move_pinned(std::size_t device_index,
                         topo::Point2D new_position);

  /// Bounded best-improvement repair over active devices: applies up to
  /// `max_moves` feasible cost-reducing reassignments. Returns moves made.
  std::size_t rebalance(std::size_t max_moves);

  /// Restores capacity feasibility after overload (e.g. cascading failures
  /// forced the least-utilized fallback): while a healthy server is over
  /// capacity, evicts the resident whose cheapest feasible relocation costs
  /// least — accepting cost increases, unlike rebalance(). Returns moves
  /// made; stops at `max_moves` or when nothing movable remains.
  std::size_t repair(std::size_t max_moves);

  // ---- Budgeted move plans --------------------------------------------------
  /// Applies a batch of asynchronously proposed moves (see
  /// core/move_plan.hpp), re-validating each against live state in plan
  /// order. A move is rejected — individually, without aborting the batch —
  /// when it is stale (device gone, slot recycled to a new generation, no
  /// longer on `from`, or malformed), its target has failed, its target
  /// lacks headroom, or `ledger` (optional) has no budget left for it.
  /// Applied moves charge the ledger and bump assignment_version(). This is
  /// the ONLY mutation entry point the background re-optimizer may use
  /// (enforced by lint rule R6).
  MovePlanReport apply_move_plan(const MovePlan& plan,
                                 BudgetLedger* ledger = nullptr);

  /// Cost of placing active device `i` on server `j` under the cluster's
  /// CostModel: weight × cached shortest-path delay, inflated by the
  /// penalty factor when kDeadlinePenalized and the delay misses the
  /// device's deadline. The single scoring function shared by join/move
  /// placement, rebalance/repair and the re-optimizer.
  [[nodiscard]] double placement_cost(std::size_t device_index,
                                      std::size_t server) const;
  /// Σ placement_cost(i, server_of(i)) over active devices — the live
  /// total the re-optimizer drives down.
  [[nodiscard]] double total_cost() const;
  [[nodiscard]] CostModel cost_model() const noexcept { return cost_model_; }

  /// Reuse generation of a device slot: bumped when its occupant leaves, so
  /// plans proposed against the old occupant are detectably stale after the
  /// slot is recycled (the ABA caveat above, made checkable).
  [[nodiscard]] std::uint64_t slot_generation(std::size_t slot) const {
    return generations_.at(slot);
  }
  /// Bumps on every assignment mutation (placement, leave, rebalance,
  /// repair, applied plan moves) — lets asynchronous proposers detect that
  /// the cluster moved under them.
  [[nodiscard]] std::uint64_t assignment_version() const noexcept {
    return assignment_version_;
  }
  /// Served per-server delay row of an active device (ms), through the
  /// DelayOracle: the exact shortest-path delays (see topology/oracle/). The
  /// reference lasts until the next delay_row() call (the oracle
  /// materializes rows into one scratch row): copy it to keep two rows.
  [[nodiscard]] const std::vector<double>& delay_row(
      std::size_t device_index) const {
    return oracle_.row(device_index);
  }
  /// Engine epoch at which the device's row was last rewritten — newer
  /// epochs mark rows dirtied by link churn, which the re-optimizer scans
  /// first.
  [[nodiscard]] std::uint64_t delay_row_epoch(std::size_t device_index) const {
    return oracle_.row_epoch(device_index);
  }
  /// The live delay oracle serving this cluster's rows (introspection for
  /// ORACLE_STATS, the STATS row counters and benches). Its fingerprint()
  /// digests the served delay view and distinguishes every epoch, so stale
  /// consumers detect reconfigurations they slept through even when a
  /// fail/restore pair returned the values to their start state.
  [[nodiscard]] const topo::oracle::DelayOracle& delay_oracle() const {
    return oracle_;
  }
  [[nodiscard]] const workload::IotDevice& device(
      std::size_t device_index) const {
    return devices_.at(device_index);
  }
  [[nodiscard]] const std::vector<double>& capacities() const noexcept {
    return capacities_;
  }

  // ---- Server failures ------------------------------------------------------
  /// Takes server `j` out of service. With `evacuate` (default) its devices
  /// move immediately to their cheapest feasible healthy servers; with
  /// `evacuate == false` residents stay assigned (deferred drain — call
  /// evacuate_server() later; handovers and joins already avoid the failed
  /// server). Throws if already failed or if it is the last healthy server.
  EvacuationReport fail_server(std::size_t server, bool evacuate = true);
  /// Drains every device still assigned to failed server `j` to its
  /// cheapest feasible healthy server. Throws if `j` is not failed.
  EvacuationReport evacuate_server(std::size_t server);
  /// Returns a failed server to service (devices migrate back only via
  /// rebalance()). Throws if not failed.
  void recover_server(std::size_t server);
  [[nodiscard]] bool server_failed(std::size_t server) const {
    return failed_.at(server);
  }
  [[nodiscard]] std::size_t healthy_server_count() const noexcept;

  // ---- Backbone link churn --------------------------------------------------
  // In-place router–router link mutations. Each one repairs every server's
  // shortest-path tree incrementally (cost O(affected region), not a full
  // recompute), rewrites only the key rows whose distances moved, and
  // updates the objective once per moved key and server with residents:
  // O(moved keys x servers), whatever the number of devices behind them.
  // Assignments are NOT changed — call rebalance() to react.
  // Throws std::invalid_argument if an endpoint is not a router or the link
  // precondition fails (fail: link must exist; restore: must be failed).

  /// Takes the u–v backbone link out of service. Devices may become
  /// unreachable from some servers (their row entries go infinite).
  LinkUpdateReport fail_link(topo::NodeId u, topo::NodeId v);
  /// Returns a previously failed backbone link to service.
  LinkUpdateReport restore_link(topo::NodeId u, topo::NodeId v);
  /// Rewrites a live backbone link's latency (ms, must be positive);
  /// the report carries the previous latency.
  LinkUpdateReport set_link_latency(topo::NodeId u, topo::NodeId v,
                                    double latency_ms);

  /// The live topology (failed_links lists currently failed backbone links).
  [[nodiscard]] const topo::NetworkTopology& network() const noexcept {
    return net_;
  }
  /// Cumulative incremental-engine counters (epoch, link updates, affected
  /// and saved node visits).
  [[nodiscard]] const topo::incr::EngineStats& link_stats() const noexcept {
    return engine_.stats();
  }
  /// Bumps on every distance-relevant topology change.
  [[nodiscard]] std::uint64_t delay_epoch() const noexcept {
    return engine_.epoch();
  }

  // ---- Introspection ------------------------------------------------------
  [[nodiscard]] std::size_t active_count() const noexcept { return active_; }
  [[nodiscard]] std::size_t server_count() const noexcept {
    return capacities_.size();
  }
  [[nodiscard]] bool is_active(std::size_t device_index) const {
    return device_index < assignment_.size() &&
           assignment_[device_index] != gap::kUnassigned;
  }
  /// Server of an active device.
  [[nodiscard]] std::size_t server_of(std::size_t device_index) const;
  /// Mean served delay over active devices (ms): the paper's objective
  /// Σ d(i, x(i)) over the active count, in O(1). The sum is kept in fixed
  /// point (2^-40 ms) as integers: Σ N[a][j] fix(key_row[a][j]) over keys a
  /// and servers j, plus Σ fix(w_i) over active slots. It is
  /// order-independent and exact: equal delays give equal bits, however
  /// the cluster got there (a fail/restore or set/reset round trip returns
  /// the same value). Each slot's two parts sum to its served delay within
  /// one fixed-point unit plus the rounding of that double addition. +inf
  /// while any device's server is unreachable. While any key entry or
  /// latency is too large for the fixed-point range (2^23 ms and up, from
  /// hostile link latencies) it falls back to a scan of the served delays.
  [[nodiscard]] double avg_delay_ms() const noexcept;
  [[nodiscard]] double max_utilization() const noexcept;
  [[nodiscard]] bool feasible() const noexcept;
  [[nodiscard]] const std::vector<double>& loads() const noexcept {
    return loads_;
  }

  // ---- Deep validation -----------------------------------------------------
  /// What check_invariants() additionally enforces beyond the always-true
  /// structural invariants. The two opt-in flags exist because the engine
  /// deliberately relaxes them in documented states: the overload fallback
  /// places past capacity when no healthy server has room, and deferred
  /// drain (fail_server(j, false)) leaves residents on a failed server
  /// until evacuate_server().
  struct InvariantOptions {
    /// Every healthy server within capacity (the paper's "no edge device
    /// overloaded" guarantee). Assert only when no overload fallback is in
    /// play.
    bool require_feasible = false;
    /// No device assigned to a failed server. Assert only when no deferred
    /// drain is pending.
    bool forbid_failed_residents = false;
    /// Engine trees spot-checked bit-for-bit against from-scratch Dijkstra
    /// (rotated by epoch). 0 skips the Dijkstra work.
    std::size_t delay_spot_checks = 1;
  };

  /// Deep cross-subsystem validation, reported through the contracts
  /// failure handler (src/util/contracts.hpp). Always checked:
  ///  - slot accounting: devices/assignment/delay rows stay parallel;
  ///    every slot is either active or parked on the free list exactly
  ///    once; active_ matches;
  ///  - load accounting: loads_[j] equals the demand sum of j's residents,
  ///    and assignments point at real servers;
  ///  - slot<->row binding: an active slot is attached in the host table
  ///    and its delay row bound, a free slot is neither;
  ///  - the objective: N[a][j], the per-key sums and the total behind
  ///    avg_delay_ms() equal a recount from the active slots' rows (the key
  ///    each reads through, its latency) and the key rows served now, and
  ///    each active slot's two parts match its served delay within one
  ///    fixed-point unit (plus the rounding of the served addition);
  ///  - the graph holds exactly the routers and the servers (device churn
  ///    writes the host table only);
  ///  - no engine dirty key is left pending (device churn dirties none;
  ///    a link update refreshes what it moved);
  ///  - the underlying NetworkTopology, IncrementalDelayEngine and
  ///    DelayOracle invariants (see their check_invariants()).
  /// Cold path; meant for tests and sampled bench epochs.
  void check_invariants(const InvariantOptions& options) const;
  void check_invariants() const { check_invariants(InvariantOptions()); }

  // Churn bookkeeping (leak regression gates key off these: slot counts
  // must track peak population, never cumulative arrivals).
  /// Device slots ever allocated (== host-table slots == delay rows held).
  [[nodiscard]] std::size_t device_slot_count() const noexcept {
    return devices_.size();
  }
  /// Departed slots awaiting reuse.
  [[nodiscard]] std::size_t free_slot_count() const noexcept {
    return free_slots_.size();
  }

 private:
  friend struct DynamicClusterTestPeer;  ///< corruption hook for tests

  struct ServerChoice {
    std::size_t server;
    bool feasible;  ///< false => overload fallback (least-utilized healthy)
  };

  /// placement_cost() for a delay already read from the oracle.
  [[nodiscard]] double cost_of(std::size_t device_index,
                               double delay_ms) const;
  /// Points `slot` at `server`, or frees it with gap::kUnassigned, moving
  /// its objective parts along. Every assignment change goes through here,
  /// so the objective cannot miss one. The parts are read from the slot's
  /// row, so the row must stay bound, to the key and latency it was
  /// assigned under, until the slot is freed here: move() frees it before
  /// the row is rebound.
  void assign(std::size_t slot, std::int32_t server);
  /// Moves assigned `slot`'s load and assignment to server `to` and bumps
  /// assignment_version(): the one reassignment step of rebalance(),
  /// repair() and apply_move_plan().
  void relocate(std::size_t slot, std::size_t to);
  /// Adds (`count` 1) or removes (-1) assigned `slot`'s objective parts:
  /// its row's latency term and one resident of (its row's key, its
  /// server).
  void count_slot(std::size_t slot, std::int64_t count);
  /// Re-multiplies moved key `key`'s residents by its rewritten row.
  void recount_key(std::uint32_t key);
  /// Throws std::invalid_argument unless u and v are router nodes.
  void require_backbone(topo::NodeId u, topo::NodeId v) const;
  /// Refreshes the oracle and packages the per-update engine deltas.
  LinkUpdateReport finish_link_update(const topo::incr::EngineStats& before,
                                      double latency_ms);
  /// topo::nearest_router over the routers. Throws std::invalid_argument
  /// when the distance is not finite (a NaN or far-off position), so
  /// callers check it before they change any state.
  [[nodiscard]] topo::NearestRouter nearest_router(
      topo::Point2D position) const;
  /// Attaches `slot` in the host table at `device`'s position, with its
  /// access link to `access.router`, and installs the device into `slot`
  /// with its delay row bound: the engine dirties nothing for a device's
  /// attachment, so the cluster, which made it, rebinds the row. No
  /// assignment yet.
  void attach_device(std::size_t slot, const workload::IotDevice& device,
                     const topo::NearestRouter& access);
  /// Unbinds `slot`'s delay row and detaches its host-table slot.
  void detach_device(std::size_t slot);
  /// Cheapest feasible healthy server, else the least-utilized healthy one
  /// (feasible == false). Throws std::logic_error if every server is
  /// failed — callers must be told rather than silently given server 0.
  [[nodiscard]] ServerChoice cheapest_feasible_server(
      std::size_t device_index) const;
  /// Assigns `slot` per cheapest_feasible_server and applies the load.
  JoinResult place_device(std::size_t slot);

  topo::NetworkTopology net_;   // host table bounded by peak population
  // Per-server shortest-path trees + versioned delay rows over net_; all
  // topology mutations route through engine_ so the trees stay exact.
  // Declared right after net_ (initialization order matters).
  topo::incr::IncrementalDelayEngine engine_;
  // Serves the per-device delay rows (row i == device slot i), bit-identical
  // to the engine's trees.
  topo::oracle::DelayOracle oracle_;
  /// Router r (routers are the node id prefix) sits at router_positions_[r];
  /// its size is the router count.
  std::vector<topo::Point2D> router_positions_;

  // Per device slot. Active slots hold a served device; departed slots are
  // parked on free_slots_ (assignment kUnassigned) and recycled by join().
  std::vector<workload::IotDevice> devices_;
  gap::Assignment assignment_;
  std::vector<std::size_t> free_slots_;  // recycled LIFO

  std::vector<double> capacities_;
  std::vector<double> loads_;
  std::vector<bool> failed_;
  std::size_t active_ = 0;

  // Live scoring function (see placement_cost()); fixed at construction
  // from the ConfigureRequest.
  CostModel cost_model_ = CostModel::kTopologyAware;
  double penalty_factor_ = 10.0;

  // The objective (see avg_delay_ms()). Sums of fixed-point terms, with
  // the +inf and out-of-range terms counted apart, each weighted by a
  // resident count.
  struct TermSum {
    __int128 sum = 0;
    std::int64_t unreachable = 0;
    std::int64_t wide = 0;  ///< out of the fixed-point range
    void add(std::int64_t term, std::int64_t count);
    TermSum& operator+=(const TermSum& other);
    TermSum& operator-=(const TermSum& other);
    friend bool operator==(const TermSum&, const TermSum&) = default;
  };
  // A slot's own parts live in its oracle row (row_key_slot, row_latency).
  // N[a][j] at residents_[a * server_count() + j], and per key a the sum
  // Σ_j N[a][j] fix(key_row[a][j]); both grow with the oracle's key slots.
  std::vector<std::uint32_t> residents_;
  std::vector<TermSum> key_terms_;
  TermSum objective_;  ///< every key's sum plus every latency term

  // Staleness provenance for asynchronous move plans.
  std::vector<std::uint64_t> generations_;  // parallel to devices_
  std::uint64_t assignment_version_ = 0;
};

}  // namespace tacc
