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
// bind epoch; a multi-homed or isolated device reads through its own node.
// Key rows are resident, filled on bind and rewritten by refresh() for
// exactly the engine's dirty keys, so a link event rewrites one row per
// moved key and touches no device's record. A read adds the device's
// latency to its key row entry — the engine's own addition, so served
// values are bit-identical to the trees. refresh() also drains the engine's
// reclassified nodes and re-resolves their keys.
//
// Epochs: a bound row's epoch is the later of its bind epoch and its key
// row's epoch. A served value never changes without its row's epoch
// rising; a key that moves by less than a row's latency can show still
// bumps that row's epoch (consumers use epochs as a staleness signal only).
//
// Row contract: rows are bound to graph nodes, carry an epoch as above,
// refresh() drains the pending invalidations (the engine's
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
  /// number of bound rows whose served delays may have moved: the sum of
  /// the moved keys' refcounts, plus re-resolved rows on an unmoved key.
  /// moved_keys() names the key rows it rewrote.
  std::size_t refresh();
  /// The key slots the last refresh() rewrote, each once (refresh_all()
  /// lists every live key). A bound row reading another key, and not
  /// reclassified, serves what it served before the refresh. Valid until
  /// the next refresh() or refresh_all().
  [[nodiscard]] std::span<const std::uint32_t> moved_keys() const noexcept {
    return store_.moved_keys();
  }
  /// Rewrites every bound row (recovery hatch after rebuild()).
  void refresh_all();
  [[nodiscard]] std::uint64_t epoch() const { return engine_->epoch(); }
  /// The later of `row`'s bind epoch and its key row's epoch.
  [[nodiscard]] std::uint64_t row_epoch(std::size_t row) const {
    return store_.row_epoch(row);
  }

  // ---- Key rows -------------------------------------------------------------
  // A bound row serves key_value(row_key_slot(row), j) + row_latency(row),
  // the split DynamicCluster keeps its objective in. A read through a bound
  // row counts a query (key_entry() as delay_ms() does); a read by key slot
  // serves no row and counts none.
  /// The key-row part of bound `row`'s entry for `server`. Counts one query.
  [[nodiscard]] double key_entry(std::size_t row, std::size_t server) const {
    ++stats_.queries;
    return store_.key_value(store_.row_key_slot(row), server);
  }
  /// The node bound `row` reads through.
  [[nodiscard]] NodeId row_key(std::size_t row) const {
    return store_.row_key(row);
  }
  [[nodiscard]] std::uint32_t row_key_slot(std::size_t row) const {
    return store_.row_key_slot(row);
  }
  [[nodiscard]] double row_latency(std::size_t row) const {
    return store_.row_latency(row);
  }
  [[nodiscard]] double key_value(std::uint32_t key, std::size_t server) const {
    return store_.key_value(key, server);
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
  /// key in the engine's dirty set or its node in the reclassified list (a
  /// refresh() would rewrite or re-resolve it) — otherwise the oracle
  /// serves stale delays it believes are current.
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
