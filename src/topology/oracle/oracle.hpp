// DelayOracle: the device->server delay rows, served from the
// IncrementalDelayEngine's per-server trees.
//
// Every consumer of per-device delay rows (DynamicCluster placement, the
// re-optimizer's planner, avg-delay metrics, the STATS wire surface) goes
// through this class instead of touching the incremental engine directly
// (lint rule R7). It serves the paper's cost, the exact shortest-path delay,
// bit-identical to the engine's trees.
//
// Rows are keyed by the router each device reads through
// (IncrementalDelayEngine::read_through), its access router. Each key row
// is stored once, contiguously, refcounted by the bound rows that read
// through it, filled on bind and rewritten by refresh() for exactly the
// engine's dirty routers. A bound row keeps only its key (and its offset),
// its access latency and its bind epoch, and serves key_row[j] + latency —
// the same double addition the engine serves a device with, so values stay
// bit-identical while a link event rewrites one row per moved router and
// touches no device's record at all.
//
// One owner per binding: what a row reads through changes only when its
// node's own links change, and whoever changes them rebinds the row
// (bind_row) right after, as DynamicCluster does on every join, move and
// leave. The engine reports no such change, so refresh() follows key moves
// only, and check_invariants() catches a forgotten rebind.
//
// Epochs: a bound row's epoch is the later of its bind epoch and its key
// row's fill epoch. A served value never changes without its row's epoch
// rising; a key that moves by less than a row's latency can show
// (old + w == new + w) still bumps that row's epoch (consumers use epochs
// as a staleness signal only).
//
// Row contract: rows are bound to graph nodes, carry an epoch as above,
// refresh() drains the pending invalidations (the engine's dirty set), and
// fingerprint() digests the epoch, the
// bindings and every served value. row() returns a reference that lasts
// until the next row() call on the same oracle: rows are materialized into
// one scratch row.
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

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "topology/incremental/engine.hpp"
#include "util/contracts.hpp"

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
  /// The record each row keeps (node, epoch, key, key row offset, latency),
  /// the part of resident_bytes() that grows with the rows rather than the
  /// keys.
  static constexpr std::size_t kRowBytes =
      sizeof(NodeId) + sizeof(std::uint64_t) + sizeof(std::uint32_t) +
      sizeof(std::size_t) + sizeof(double);

  /// The engine must outlive the oracle.
  explicit DelayOracle(incr::IncrementalDelayEngine& engine);
  DelayOracle(const DelayOracle&) = delete;
  DelayOracle& operator=(const DelayOracle&) = delete;

  [[nodiscard]] std::size_t server_count() const noexcept { return width_; }

  // ---- Row bindings ---------------------------------------------------------
  /// Binds `row` (growing storage as needed) to `node`, rebinding in place
  /// if the row was already bound, and stamps it with the fill epoch.
  /// Throws std::invalid_argument, leaving every binding as it was, unless
  /// `node` reads through a router: a device with its access link.
  /// Resolves the node's key and fills the key row now, so the row serves
  /// current values, and so do the other rows reading through that key; a
  /// shared key row whose values did not move keeps its epoch.
  void bind_row(std::size_t row, NodeId node);
  /// Detaches `row` from its node and releases its key; a no-op if it was
  /// not bound. A key row no row reads through is freed, and its allocation
  /// is kept for the next key.
  void unbind_row(std::size_t row);
  [[nodiscard]] NodeId row_node(std::size_t row) const {
    return nodes_.at(row);
  }
  [[nodiscard]] std::size_t row_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] std::size_t bound_count() const noexcept { return bound_; }

  // ---- Queries ------------------------------------------------------------
  /// The served per-server delay row: the key row plus the row's latency.
  /// The reference lasts until the next row() call on this oracle (the row
  /// is materialized into one oracle-owned scratch row) — read it, or copy
  /// it, before asking for another row. delay_ms() does not disturb it.
  [[nodiscard]] const std::vector<double>& row(std::size_t row) const;
  /// One served entry. Counts one query, where row() counts server_count().
  [[nodiscard]] double delay_ms(std::size_t row, std::size_t server) const {
    ++stats_.queries;
    return value(row, server);
  }

  // ---- Epochs / invalidation ----------------------------------------------
  /// Drains the engine's dirty set and rewrites the key rows of the dirty
  /// routers (routers without a key row are skipped), listing them as
  /// moved_keys(). No row's record is touched: a row reading a moved key
  /// takes its epoch from the key. Returns the number of bound rows whose
  /// served delays may have moved — the sum of the moved keys' refcounts —
  /// and counts them into rows_refreshed/rows_saved.
  std::size_t refresh();
  /// The key slots the last refresh() rewrote, each once (refresh_all()
  /// lists every live key). A bound row reading another key serves what it
  /// served before the refresh. Valid until the next refresh() or
  /// refresh_all().
  [[nodiscard]] std::span<const std::uint32_t> moved_keys() const noexcept {
    return moved_keys_;
  }
  /// Re-resolves every bound row and rewrites every key row, counting each
  /// bound row as refreshed and listing every live key as moved (the
  /// recovery hatch after an engine rebuild()).
  void refresh_all();
  [[nodiscard]] std::uint64_t epoch() const { return engine_->epoch(); }
  /// The later of bound `row`'s bind epoch and its key row's fill epoch.
  [[nodiscard]] std::uint64_t row_epoch(std::size_t row) const {
    TACC_REQUIRE(row < nodes_.size() && nodes_[row] != kInvalidNode,
                 "reading the epoch of an unbound oracle row");
    return std::max(epochs_.at(row), keys_.at(row_key_.at(row)).epoch);
  }

  // ---- Key rows -------------------------------------------------------------
  // A bound row serves key_value(row_key_slot(row), j) + row_latency(row),
  // the split DynamicCluster keeps its objective in. A read through a bound
  // row counts a query (key_entry() as delay_ms() does); a read by key slot
  // serves no row and counts none.
  /// The key-row part of bound `row`'s entry for `server`. Counts one query.
  [[nodiscard]] double key_entry(std::size_t row, std::size_t server) const {
    ++stats_.queries;
    return key_value(row_key_[row], server);
  }
  /// The router bound `row` reads through.
  [[nodiscard]] NodeId row_key(std::size_t row) const {
    return keys_.at(row_key_.at(row)).node;
  }
  /// The key slot bound `row` reads through: a dense index, reused once the
  /// last row reading through it lets go.
  [[nodiscard]] std::uint32_t row_key_slot(std::size_t row) const {
    return row_key_[row];
  }
  /// The latency bound `row` adds to its key row.
  [[nodiscard]] double row_latency(std::size_t row) const {
    return row_latency_[row];
  }
  /// One entry of live key slot `key`'s row.
  [[nodiscard]] double key_value(std::uint32_t key, std::size_t server) const {
    return key_values_[std::size_t{key} * width_ + server];
  }
  /// Splitmix64 chain over (engine epoch, bound count, bindings, every
  /// served value). Stable across platforms.
  [[nodiscard]] std::uint64_t fingerprint() const;
  [[nodiscard]] std::uint64_t rows_refreshed() const noexcept {
    return rows_refreshed_;
  }
  [[nodiscard]] std::uint64_t rows_saved() const noexcept {
    return rows_saved_;
  }

  // ---- Introspection ------------------------------------------------------
  /// Bytes resident beyond the shared engine: the key rows (live or freed),
  /// the per-row records, the scratch rows and all binding bookkeeping.
  [[nodiscard]] std::size_t resident_bytes() const noexcept;
  [[nodiscard]] const OracleStats& stats() const noexcept { return stats_; }
  /// Served rows as a dense DelayMatrix (unbound rows kUnreachable) —
  /// bench/test use only.
  [[nodiscard]] DelayMatrix materialize() const;
  /// Deep validation via the contracts failure handler; cold path.
  /// Structure: per-row arrays stay parallel, bound_count matches the
  /// bindings, no row or key row is stamped past the engine epoch, every
  /// bound row reads through a live key, each key's refcount equals the
  /// rows reading through it, no key row is left without one, and
  /// node->key is the inverse of key->node. Soundness: a bound row whose
  /// values differ bitwise from the engine's delay_ms() must have its key
  /// in the engine's dirty set (a refresh() would rewrite it) — otherwise
  /// the oracle serves stale delays it believes are current, as it does
  /// after a node's own link changed and its row was not rebound. Outside
  /// that excuse each bound row also reads through its node's current key
  /// and latency, so a forgotten rebind shows even where the values agree.
  void check_invariants() const;

 private:
  friend struct DelayOracleTestPeer;  ///< corruption hook for invariant tests

  static constexpr std::uint32_t kNoKey = static_cast<std::uint32_t>(-1);
  /// A shared row: `node`'s values, read by `refs` bound rows.
  struct Key {
    NodeId node = kInvalidNode;
    std::uint32_t refs = 0;
    std::uint64_t epoch = 0;  ///< engine epoch of the last fill that moved it
    std::uint64_t pass = 0;   ///< refresh pass of the last fill
    std::uint64_t moved = 0;  ///< refresh pass that last listed it as moved
  };

  /// One entry of bound `row`: key row entry + latency, the same double
  /// addition the engine serves a device with.
  [[nodiscard]] double value(std::size_t row, std::size_t column) const {
    return key_values_[row_offset_[row] + column] + row_latency_[row];
  }
  /// Points `row` at the current key and latency of `node`, which it is
  /// or is about to be bound to. Throws std::invalid_argument before any
  /// change unless `node` reads through a router.
  void resolve_row(std::size_t row, NodeId node);
  std::uint32_t acquire_key(NodeId router);
  void release_key(std::uint32_t key);
  /// Fills `key`'s row unless this refresh pass already did.
  void fill_key(std::uint32_t key);
  /// Fills `key` (once per pass) and lists it in moved_keys().
  void move_key(std::uint32_t key);
  /// Drains the engine's dirty set into drain_scratch_.
  void drain();

  incr::IncrementalDelayEngine* engine_;
  std::size_t width_;                     ///< values per row: the servers
  std::vector<NodeId> nodes_;             ///< per row; kInvalidNode if unbound
  std::vector<std::uint64_t> epochs_;     ///< per row: bind epoch
  std::size_t bound_ = 0;
  // Per row, the key it reads through and the latency added to it.
  std::vector<std::uint32_t> row_key_;  ///< kNoKey if unbound
  /// key * width_, the key row's first entry: value() needs no multiply.
  std::vector<std::size_t> row_offset_;
  std::vector<double> row_latency_;
  // The key rows, one contiguous width_-sized block per key.
  std::vector<Key> keys_;
  std::vector<double> key_values_;
  std::vector<std::uint32_t> key_of_node_;  ///< per router; kNoKey if none
  std::vector<std::uint32_t> free_keys_;    ///< freed key slots, reused first
  std::uint64_t pass_ = 1;                  ///< bumped per refresh pass
  // mutable: row() materializes into the scratch row and reads count
  // queries on logically-const calls (externally synchronized, see above).
  mutable std::vector<double> row_scratch_;  ///< the last row() read
  mutable OracleStats stats_;
  std::vector<double> fill_scratch_;       ///< a shared key row's refill
  std::vector<std::uint32_t> moved_keys_;  ///< see moved_keys()
  std::vector<NodeId> drain_scratch_;
  std::uint64_t rows_refreshed_ = 0;
  std::uint64_t rows_saved_ = 0;
};

}  // namespace tacc::topo::oracle
