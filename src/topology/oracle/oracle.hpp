// DelayOracle: the device->server delay rows, served from the
// IncrementalDelayEngine's per-server trees.
//
// Every consumer of per-device delay rows (DynamicCluster placement, the
// re-optimizer's planner, avg-delay metrics, the STATS wire surface) goes
// through this class instead of touching the incremental engine directly
// (lint rule R7). It serves the paper's cost, the exact shortest-path delay,
// bit-identical to the engine's trees.
//
// Rows live in a RowStore (rowstore.hpp) keyed by the node each device reads
// through (IncrementalDelayEngine::read_through): a single-homed device
// shares its anchor router's key row and keeps only its access latency and
// epoch; a multi-homed or isolated device reads through its own node. Key
// rows are resident, filled on bind and rewritten by refresh() for exactly
// the engine's dirty key nodes, so a link event rewrites one row per moved
// router, not one per device. A read adds the device's latency to its key
// row entry — the engine's own addition, so served values are bit-identical
// to the trees. refresh() also drains the engine's reclassified nodes and
// re-resolves their keys, and stamps each dirty bound device's row epoch
// exactly as a per-device row store would.
//
// Row contract: rows are bound to graph nodes, carry the epoch they were
// last written at, refresh() drains the pending invalidations (the engine's
// dirty set and its reclassified nodes), and fingerprint() digests the
// epoch, the bindings and every served value. row() returns a reference
// that lasts until the next row() call on the same oracle: rows are
// materialized into one scratch row.
//
// Thread safety: none. The oracle is owned by a DynamicCluster and shares
// its external synchronization. row() writes the scratch row and every read
// counts a query, so even concurrent readers must be externally serialized.
// In the serving layer that serialization point is the session's cluster
// mutex: service::Engine::Session declares its cluster TACC_PT_GUARDED_BY
// (cluster_mutex), so the thread-safety analysis proves every oracle call
// routed through a session happens under that lock (see DESIGN.md,
// "Locking discipline").
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "topology/incremental/engine.hpp"
#include "topology/oracle/rowstore.hpp"

namespace tacc::topo::oracle {

/// Cumulative query accounting, surfaced by the ORACLE_STATS wire verb.
struct OracleStats {
  std::uint64_t queries = 0;  ///< row entries served
  /// Rows filled on a read. Every row is filled on bind and refresh(),
  /// never on a read, so this stays 0; ORACLE_STATS keeps the field for
  /// the clients that read it.
  std::uint64_t row_fills = 0;
};

class DelayOracle {
 public:
  /// The engine must outlive the oracle.
  explicit DelayOracle(incr::IncrementalDelayEngine& engine);
  DelayOracle(const DelayOracle&) = delete;
  DelayOracle& operator=(const DelayOracle&) = delete;

  [[nodiscard]] std::size_t server_count() const noexcept {
    return store_.width();
  }

  // ---- Row bindings ---------------------------------------------------------
  void bind_row(std::size_t row, NodeId node) { store_.bind(row, node); }
  void unbind_row(std::size_t row) { store_.unbind(row); }
  [[nodiscard]] NodeId row_node(std::size_t row) const {
    return store_.row_node(row);
  }
  [[nodiscard]] std::size_t row_count() const noexcept {
    return store_.row_count();
  }
  [[nodiscard]] std::size_t bound_count() const noexcept {
    return store_.bound_count();
  }

  // ---- Queries ------------------------------------------------------------
  /// The served per-server delay row. The reference lasts until the next
  /// row() call on this oracle (the row is materialized into one
  /// oracle-owned scratch row) — read it, or copy it, before asking for
  /// another row. delay_ms() does not disturb it.
  [[nodiscard]] const std::vector<double>& row(std::size_t row) const {
    stats_.queries += store_.width();
    return store_.row(row);
  }
  /// One served entry. Counts one query, where row() counts server_count().
  [[nodiscard]] double delay_ms(std::size_t row, std::size_t server) const {
    ++stats_.queries;
    return store_.value(row, server);
  }

  // ---- Epochs / invalidation ----------------------------------------------
  /// Drains the engine's dirty set and reclassified nodes. Returns the
  /// number of bound rows whose served delays moved, however few shared key
  /// rows that took; refreshed_rows() names them.
  std::size_t refresh();
  /// The bound rows the last refresh() counted, each once (refresh_all()
  /// reports every bound row). A bound row outside them serves what it
  /// served before the refresh. Valid until the next refresh() or
  /// refresh_all().
  [[nodiscard]] std::span<const std::size_t> refreshed_rows() const noexcept {
    return store_.refreshed_rows();
  }
  /// Rewrites every bound row (recovery hatch after rebuild()).
  void refresh_all();
  [[nodiscard]] std::uint64_t epoch() const { return engine_->epoch(); }
  [[nodiscard]] std::uint64_t row_epoch(std::size_t row) const {
    return store_.row_epoch(row);
  }
  [[nodiscard]] std::uint64_t fingerprint() const {
    return store_.fingerprint(engine_->epoch());
  }
  [[nodiscard]] std::uint64_t rows_refreshed() const noexcept {
    return store_.rows_refreshed();
  }
  [[nodiscard]] std::uint64_t rows_saved() const noexcept {
    return store_.rows_saved();
  }

  // ---- Introspection ------------------------------------------------------
  /// Bytes resident beyond the shared engine: row storage and bookkeeping.
  [[nodiscard]] std::size_t resident_bytes() const;
  [[nodiscard]] const OracleStats& stats() const noexcept { return stats_; }
  /// Served rows as a dense DelayMatrix (unbound rows kUnreachable) —
  /// bench/test use only.
  [[nodiscard]] DelayMatrix materialize() const {
    return store_.materialize();
  }
  /// Deep validation via the contracts failure handler; cold path. The
  /// store's structural invariants plus dirty-set soundness: a bound row
  /// whose values differ bitwise from the engine's delay_ms() must have its
  /// node or its key in the engine's dirty set (a refresh() would rewrite
  /// it) — otherwise the oracle serves stale delays it believes are current.
  void check_invariants() const;

 private:
  friend struct RowStoreTestPeer;  ///< corruption hook for invariant tests

  /// Drains the engine's dirty set, then its reclassified nodes, into
  /// drain_scratch_; returns the dirty count.
  std::size_t drain();

  incr::IncrementalDelayEngine* engine_;
  // mutable: row() materializes into the store's scratch row and reads count
  // queries on logically-const calls (externally synchronized, see above).
  mutable RowStore store_;
  mutable OracleStats stats_;
  std::vector<NodeId> drain_scratch_;
};

}  // namespace tacc::topo::oracle
