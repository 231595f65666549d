// DelayOracle: the pluggable device->server delay estimation interface.
//
// Every consumer of per-device delay rows (DynamicCluster placement, the
// re-optimizer's planner, avg-delay metrics, the STATS wire surface) goes
// through this interface instead of touching the incremental engine
// directly (lint rule R7). Backends:
//
//   ExactOracle     (exact.hpp)    — rows filled from the
//                                    IncrementalDelayEngine's trees; the
//                                    default, bit-identical to them.
//   LandmarkOracle  (landmark.hpp) — landmark/ALT lower+upper bound
//                                    envelopes with exact fallback; O(k)
//                                    per entry instead of dense rows.
//
// Both keep their rows in a RowStore (rowstore.hpp): dense for the default
// ExactOracle (rows keyed by the tree node they read through, so the
// single-homed devices of one anchor router share one resident row),
// bounded (a QuantizedRowStore) for ExactOracle with config.compress and
// for LandmarkOracle.
//
// Row contract: rows are bound to graph nodes, carry the epoch they were
// last written at, refresh() drains the pending invalidations (the engine's
// dirty set, and its reclassified nodes, for attached backends), and
// fingerprint() digests the cached view. row() returns a reference that
// lasts until the next row() call on the same oracle (dense rows are
// materialized into one scratch row) or until hot-set eviction (bounded). Bounded stores cannot digest values they never materialize, so
// their fingerprint covers (epoch, bindings, backend identity) only — still
// a change detector, but not a value digest; only the default dense
// ExactOracle also digests every row value.
//
// Thread safety: none. Oracles are owned by a DynamicCluster and share its
// external synchronization. Backends with an LRU row store mutate internal
// state on logically-const reads (row(), delay_ms()), so even concurrent
// readers must be externally serialized for non-default backends. In the
// serving layer that serialization point is the session's cluster mutex:
// service::Engine::Session declares its cluster TACC_PT_GUARDED_BY
// (cluster_mutex), so the thread-safety analysis proves every oracle call
// routed through a session happens under that lock (see DESIGN.md,
// "Locking discipline").
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "topology/incremental/engine.hpp"
#include "topology/oracle/config.hpp"
#include "topology/oracle/rowstore.hpp"

namespace tacc::topo::oracle {

/// A certified delay envelope: exact is in [lo_ms, hi_ms] whenever
/// `certified` (always true for the exact backend, where lo == hi). An
/// uncertified envelope means the backend could not bound the entry and a
/// caller needing guarantees must take the exact value instead.
struct DelayBounds {
  double lo_ms = 0.0;
  double hi_ms = 0.0;
  bool certified = true;
};

/// Cumulative query accounting, surfaced by the ORACLE_STATS wire verb.
/// `width_hist` buckets the relative envelope width (hi-lo)/max(lo, 1e-9)
/// of served bound entries at < 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1, inf.
struct OracleStats {
  std::uint64_t queries = 0;          ///< row entries served
  std::uint64_t bound_hits = 0;       ///< served from a certified envelope
  std::uint64_t exact_fallbacks = 0;  ///< envelope too loose; exact value
  std::uint64_t row_fills = 0;        ///< rows (re)computed
  std::uint64_t rebuilds = 0;         ///< full landmark rebuilds (gate: 0)
  std::array<std::uint64_t, 8> width_hist{};
};

/// The row bookkeeping, reads and accounting live here once, over the
/// backend's RowStore; a backend supplies the fill and the parts that
/// differ (envelopes, invalidation sources, digest identity, validation).
class DelayOracle {
 public:
  virtual ~DelayOracle();
  DelayOracle(const DelayOracle&) = delete;
  DelayOracle& operator=(const DelayOracle&) = delete;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] std::size_t server_count() const noexcept {
    return store_.width();
  }
  /// True when every bound row is served from resident rows kept current
  /// by bind and refresh() (the default ExactOracle), so a read is a pure
  /// function of the engine's trees; false for bounded stores, whose reads
  /// depend on LRU residency.
  [[nodiscard]] bool dense() const noexcept { return store_.dense(); }

  // ---- Row bindings ---------------------------------------------------------
  virtual void bind_row(std::size_t row, NodeId node) {
    store_.bind(row, node);
  }
  virtual void unbind_row(std::size_t row) { store_.unbind(row); }
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
  /// The served per-server delay row. For approximate backends every entry
  /// e satisfies exact <= e <= (1+eps)·exact + slack (see landmark.hpp).
  /// The reference lasts until the next row() call on this oracle (dense
  /// stores materialize the row into one oracle-owned scratch row) or until
  /// hot-set eviction (bounded ones) — read it, or copy it, before asking
  /// for another row. delay_ms() does not disturb it.
  [[nodiscard]] const std::vector<double>& row(std::size_t row) const {
    stats_.queries += store_.width();
    return store_.row(row);
  }
  /// One served entry; same guarantees as row(). Counts one query, where
  /// row() counts server_count().
  [[nodiscard]] double delay_ms(std::size_t row, std::size_t server) const {
    ++stats_.queries;
    return store_.value(row, server);
  }
  /// The certified envelope for one entry, computed live (never from
  /// compressed storage) — the property-tested containment guarantee.
  [[nodiscard]] virtual DelayBounds bounds_ms(std::size_t row,
                                              std::size_t server) const = 0;

  // ---- Epochs / invalidation ----------------------------------------------
  /// Processes pending invalidations (the engine dirty set and, for the
  /// landmark backend, rows whose certifying vectors moved). Returns the
  /// number of bound rows whose served delays moved (rewritten or
  /// invalidated), however few shared key rows that took; refreshed_rows()
  /// names them.
  virtual std::size_t refresh() = 0;
  /// The bound rows the last refresh() counted, each once (refresh_all()
  /// reports every bound row). A bound row outside them serves what it
  /// served before the refresh, unless a bounded store evicts and refills
  /// it. Valid until the next refresh() or refresh_all().
  [[nodiscard]] std::span<const std::size_t> refreshed_rows() const noexcept {
    return store_.refreshed_rows();
  }
  /// Rewrites/invalidates every bound row (recovery hatch after rebuild()).
  virtual void refresh_all() = 0;
  [[nodiscard]] virtual std::uint64_t epoch() const = 0;
  [[nodiscard]] std::uint64_t row_epoch(std::size_t row) const {
    return store_.row_epoch(row);
  }
  [[nodiscard]] virtual std::uint64_t fingerprint() const = 0;
  [[nodiscard]] std::uint64_t rows_refreshed() const noexcept {
    return store_.rows_refreshed();
  }
  [[nodiscard]] std::uint64_t rows_saved() const noexcept {
    return store_.rows_saved();
  }

  // ---- Introspection ------------------------------------------------------
  /// Bytes resident in the backend beyond the shared engine (row storage,
  /// landmark vectors, bookkeeping).
  [[nodiscard]] virtual std::size_t resident_bytes() const = 0;
  [[nodiscard]] const OracleStats& stats() const noexcept {
    stats_.row_fills = store_.row_fills();
    return stats_;
  }
  /// Served rows as a dense DelayMatrix (unbound rows kUnreachable). Forces
  /// materialization for lazy backends — bench/test use only.
  [[nodiscard]] DelayMatrix materialize() const {
    return store_.materialize();
  }
  /// Deep validation via the contracts failure handler; cold path.
  virtual void check_invariants() const = 0;

 protected:
  /// `width` servers per row; see RowStore for the encodings and for
  /// `resolve` (dense only).
  DelayOracle(RowEncoding encoding, std::size_t width, std::size_t hot_rows,
              RowStore::Resolve resolve = {});

  /// The store's fill: `node`'s delay to every server, written to `out`;
  /// returns the epoch the values are current at. `row` is the bound row
  /// being filled, or kUnbound for a dense key row (see RowStore::Fill).
  virtual std::uint64_t fill_row(std::size_t row, NodeId node,
                                 std::span<double> out) const = 0;

  // mutable: bounded reads fill and stamp rows on logically-const calls
  // (externally synchronized, see above).
  mutable RowStore store_;
  mutable OracleStats stats_;
};

/// Builds the configured backend over `engine` (which must outlive the
/// oracle). The default config returns a dense ExactOracle.
[[nodiscard]] std::unique_ptr<DelayOracle> make_oracle(
    const OracleConfig& config, incr::IncrementalDelayEngine& engine);

/// Histogram bucket for a relative envelope width (see OracleStats).
[[nodiscard]] std::size_t width_bucket(double relative_width) noexcept;

}  // namespace tacc::topo::oracle
