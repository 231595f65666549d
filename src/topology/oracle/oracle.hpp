// DelayOracle: the pluggable device->server delay estimation interface.
//
// Every consumer of per-device delay rows (DynamicCluster placement, the
// re-optimizer's planner, avg-delay metrics, the STATS wire surface) goes
// through this interface instead of touching DelayMatrixCache directly
// (lint rule R7). Backends:
//
//   ExactOracle     (exact.hpp)    — wraps IncrementalDelayEngine +
//                                    DelayMatrixCache; the default, and
//                                    bit-identical to pre-oracle behavior.
//   LandmarkOracle  (landmark.hpp) — landmark/ALT lower+upper bound
//                                    envelopes with exact fallback; O(k)
//                                    per entry instead of dense rows.
//
// Either backend can layer a QuantizedRowStore (rowstore.hpp) underneath
// for bounded residency (config.compress).
//
// Contract mirror of DelayMatrixCache: rows are bound to graph nodes, carry
// the epoch they were last written at, refresh() drains the pending
// invalidations (the engine's dirty set for attached backends), and
// fingerprint() digests the cached view. Approximate/compressed backends
// cannot digest values they never materialize, so their fingerprint covers
// (epoch, bindings, backend identity) only — still a change detector, but
// not a value digest; only the default ExactOracle reproduces
// DelayMatrixCache::fingerprint() bit-for-bit.
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
#include <string_view>
#include <vector>

#include "topology/incremental/engine.hpp"
#include "topology/oracle/config.hpp"

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

class DelayOracle {
 public:
  DelayOracle() = default;
  virtual ~DelayOracle();
  DelayOracle(const DelayOracle&) = delete;
  DelayOracle& operator=(const DelayOracle&) = delete;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] virtual std::size_t server_count() const = 0;

  // ---- Row bindings (DelayMatrixCache contract) ---------------------------
  virtual void bind_row(std::size_t row, NodeId node) = 0;
  virtual void unbind_row(std::size_t row) = 0;
  [[nodiscard]] virtual NodeId row_node(std::size_t row) const = 0;
  [[nodiscard]] virtual std::size_t row_count() const = 0;
  [[nodiscard]] virtual std::size_t bound_count() const = 0;

  // ---- Queries ------------------------------------------------------------
  /// The served per-server delay row. For approximate backends every entry
  /// e satisfies exact <= e <= (1+eps)·exact + slack (see landmark.hpp).
  /// The reference stays valid until the backend evicts the row (stable
  /// until the next mutation for uncompressed backends; until hot-set
  /// eviction for compressed ones) — read it before querying other rows.
  [[nodiscard]] virtual const std::vector<double>& row(
      std::size_t row) const = 0;
  /// One served entry; same guarantees as row(). Counts one query, where
  /// row() counts server_count().
  [[nodiscard]] virtual double delay_ms(std::size_t row,
                                        std::size_t server) const = 0;
  /// The certified envelope for one entry, computed live (never from
  /// compressed storage) — the property-tested containment guarantee.
  [[nodiscard]] virtual DelayBounds bounds_ms(std::size_t row,
                                              std::size_t server) const = 0;

  // ---- Epochs / invalidation ----------------------------------------------
  /// Processes pending invalidations (the engine dirty set and, for the
  /// landmark backend, rows whose certifying vectors moved). Returns the
  /// number of rows invalidated or rewritten.
  virtual std::size_t refresh() = 0;
  /// Rewrites/invalidates every bound row (recovery hatch after rebuild()).
  virtual void refresh_all() = 0;
  [[nodiscard]] virtual std::uint64_t epoch() const = 0;
  [[nodiscard]] virtual std::uint64_t row_epoch(std::size_t row) const = 0;
  [[nodiscard]] virtual std::uint64_t fingerprint() const = 0;
  [[nodiscard]] virtual std::uint64_t rows_refreshed() const = 0;
  [[nodiscard]] virtual std::uint64_t rows_saved() const = 0;

  // ---- Introspection ------------------------------------------------------
  /// Bytes resident in the backend beyond the shared engine (row storage,
  /// landmark vectors, bookkeeping).
  [[nodiscard]] virtual std::size_t resident_bytes() const = 0;
  [[nodiscard]] virtual const OracleStats& stats() const = 0;
  /// Served rows as a dense DelayMatrix (unbound rows kUnreachable). Forces
  /// materialization for lazy backends — bench/test use only.
  [[nodiscard]] virtual DelayMatrix materialize() const = 0;
  /// Deep validation via the contracts failure handler; cold path.
  virtual void check_invariants() const = 0;
};

/// Shared row<->node binding bookkeeping for store-backed backends (the
/// compressed ExactOracle and the LandmarkOracle): the same parallel-array +
/// inverse-index structure DelayMatrixCache keeps, without the row storage.
struct RowBindings {
  static constexpr std::size_t kUnbound = static_cast<std::size_t>(-1);

  std::vector<NodeId> nodes;             ///< per row; kInvalidNode if unbound
  std::vector<std::uint64_t> epochs;     ///< per row: epoch last written
  std::vector<std::size_t> node_to_row;  ///< per node; kUnbound if none
  std::size_t bound = 0;

  /// Binds `row` to `node`, growing the arrays; true if the row was
  /// previously bound (a rebind).
  bool bind(std::size_t row, NodeId node);
  /// Unbinds `row`; false if it was not bound.
  bool unbind(std::size_t row);
  [[nodiscard]] NodeId row_node(std::size_t row) const {
    return nodes.at(row);
  }
  [[nodiscard]] std::size_t row_of(NodeId node) const noexcept {
    return node < node_to_row.size() ? node_to_row[node] : kUnbound;
  }
  /// Structural validation via the contracts failure handler.
  void check_invariants() const;
};

/// Builds the configured backend over `engine` (which must outlive the
/// oracle). The default config returns an ExactOracle that is bit-identical
/// to driving a DelayMatrixCache directly.
[[nodiscard]] std::unique_ptr<DelayOracle> make_oracle(
    const OracleConfig& config, incr::IncrementalDelayEngine& engine);

/// Histogram bucket for a relative envelope width (see OracleStats).
[[nodiscard]] std::size_t width_bucket(double relative_width) noexcept;

}  // namespace tacc::topo::oracle
