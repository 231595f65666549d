// Delay-row storage for the DelayOracle backends.
//
// RowStore is the one row store behind both backends: the row<->node
// bindings, per-row epochs, refresh accounting, the fingerprint and the
// structural invariants, over rows held in one of two encodings fixed at
// construction:
//
//   dense    every bound row is resident as exact doubles, filled on bind
//            and rewritten on refresh() (the default ExactOracle);
//   bounded  rows live in a QuantizedRowStore, filled lazily on first touch
//            and dropped on refresh() (ExactOracle with compress=1, and
//            LandmarkOracle).
//
// The backend supplies the row values through a fill callback; the store
// decides when to call it.
//
// QuantizedRowStore: two-tier bounded residency for delay rows.
//
// The hot tier keeps the H most recently touched rows as exact doubles; on
// eviction a row is demoted to the cold tier as uint16 codes against a
// per-row scale (round-UP quantization, so a decoded value never drops below
// the stored one — an upper-bound estimate stays an upper bound). The cold
// tier is itself LRU-bounded; rows evicted from it are simply dropped and
// the owning oracle recomputes them on the next touch. Residency is
// therefore O(hot·M·10 + cold·M·2) bytes (a promoted hot row keeps its
// codes) regardless of how many rows exist — the property the bench_m6
// memory gate measures.
//
// Quantization contract: for a stored value v with row scale s =
// max_finite(row)/65534, the decoded value d satisfies v <= d <= v + s.
// kUnreachable round-trips exactly (code 65535).
//
// Thread safety: none. The LRU lists mutate on every touch — including
// logically-const lookups — so both classes inherit the owning oracle's
// external serialization (the session cluster mutex in the serving layer).
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <span>
#include <unordered_map>
#include <vector>

#include "topology/network.hpp"

namespace tacc::topo::oracle {

/// Cold-tier rows per hot row when a backend sizes its store from
/// OracleConfig::hot_rows (cold rows cost 4x less than hot ones).
inline constexpr std::size_t kColdPerHot = 32;

class QuantizedRowStore {
 public:
  /// `width` values per row; `hot_capacity`/`cold_capacity` rows per tier
  /// (each at least 1).
  QuantizedRowStore(std::size_t width, std::size_t hot_capacity,
                    std::size_t cold_capacity);

  [[nodiscard]] std::size_t width() const noexcept { return width_; }

  /// Inserts (or overwrites) `row` in the hot tier and returns the resident
  /// copy. The reference stays valid until `row` is demoted by later put()/
  /// get() traffic — with hot capacity H, at least H-1 distinct other rows
  /// must be touched first.
  const std::vector<double>& put(std::size_t row,
                                 std::span<const double> values);

  /// Promotes `row` to the hot tier (decoding if cold) and returns the
  /// resident copy; nullptr if the row is not resident in either tier.
  [[nodiscard]] const std::vector<double>* get(std::size_t row);

  [[nodiscard]] bool contains(std::size_t row) const noexcept;
  /// Drops `row` from whichever tier holds it (no-op if absent).
  void erase(std::size_t row);
  /// Drops every resident row.
  void clear();

  [[nodiscard]] std::size_t hot_size() const noexcept { return hot_.size(); }
  [[nodiscard]] std::size_t cold_size() const noexcept { return cold_.size(); }
  [[nodiscard]] std::size_t size() const noexcept {
    return hot_.size() + cold_.size();
  }

  /// Bytes held by resident rows + index structures (capacity-based).
  [[nodiscard]] std::size_t resident_bytes() const noexcept;

  /// Deep validation via the contracts failure handler: index maps are the
  /// exact inverse of the tier lists, capacities are respected, row widths
  /// match, and cold scales are non-negative and finite.
  void check_invariants() const;

 private:
  struct ColdEntry {
    std::size_t row;
    double scale;
    std::vector<std::uint16_t> codes;
  };
  struct HotEntry {
    std::size_t row;
    std::vector<double> values;
    /// The cold encoding `values` were decoded from (empty codes if put()
    /// wrote them). Demotion reuses it: quantizing already rounded-up
    /// values again would round them up again, so a row cycling between
    /// the tiers would drift past the one-scale-step contract.
    ColdEntry decoded_from;
  };

  /// Moves the LRU hot row into the cold tier (quantizing), evicting the
  /// LRU cold row if the cold tier is full.
  void demote_lru_hot();
  HotEntry& insert_hot(std::size_t row, std::vector<double> values);

  std::size_t width_;
  std::size_t hot_capacity_;
  std::size_t cold_capacity_;
  // Front = most recently used, back = LRU victim.
  std::list<HotEntry> hot_;
  std::list<ColdEntry> cold_;
  std::unordered_map<std::size_t, std::list<HotEntry>::iterator> hot_index_;
  std::unordered_map<std::size_t, std::list<ColdEntry>::iterator> cold_index_;
  std::vector<double> decode_scratch_;
};

enum class RowEncoding : std::uint8_t {
  kDense,    ///< every bound row resident as exact doubles
  kBounded,  ///< rows in a QuantizedRowStore, filled lazily
};

class RowStore {
 public:
  static constexpr std::size_t kUnbound = static_cast<std::size_t>(-1);

  /// Writes the current values of bound `row` (attached to `node`) into
  /// `out` (width() entries) and returns the epoch they are current at.
  using Fill = std::function<std::uint64_t(std::size_t row, NodeId node,
                                           std::span<double> out)>;

  /// `width` values per row; `hot_rows` sizes the bounded encoding's hot
  /// tier (the cold tier holds kColdPerHot x as many) and is unused when
  /// dense.
  RowStore(RowEncoding encoding, std::size_t width, std::size_t hot_rows,
           Fill fill);

  [[nodiscard]] bool dense() const noexcept { return dense_; }
  [[nodiscard]] std::size_t width() const noexcept { return width_; }

  // ---- Bindings -----------------------------------------------------------
  /// Binds `row` (growing storage as needed) to `node`, rebinding in place
  /// if the row was already bound. Dense fills the row now; bounded drops
  /// any resident copy so the next touch fills it.
  void bind(std::size_t row, NodeId node);
  /// Detaches `row` from its node; false if it was not bound. A dense row
  /// keeps its allocation, so a recycled slot refills in place.
  bool unbind(std::size_t row);
  [[nodiscard]] NodeId row_node(std::size_t row) const {
    return nodes_.at(row);
  }
  [[nodiscard]] std::size_t row_of(NodeId node) const noexcept {
    return node < node_to_row_.size() ? node_to_row_[node] : kUnbound;
  }
  [[nodiscard]] std::size_t row_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] std::size_t bound_count() const noexcept { return bound_; }
  /// Epoch at which `row` was last filled.
  [[nodiscard]] std::uint64_t row_epoch(std::size_t row) const {
    return epochs_.at(row);
  }

  // ---- Rows ---------------------------------------------------------------
  /// The values of bound `row`. Dense: a direct index. Bounded: the
  /// resident copy, or a fresh fill (stamping the row epoch and counting a
  /// row fill); the reference stays valid until hot-set eviction.
  [[nodiscard]] const std::vector<double>& row(std::size_t row) {
    return dense_ ? dense_rows_[row] : fetch(row);
  }

  /// The rows bound to `nodes` are out of date: dense rewrites them,
  /// bounded drops them. Nodes without a bound row are skipped. Counts the
  /// pass into rows_refreshed/rows_saved and returns the rows touched.
  std::size_t refresh(std::span<const NodeId> nodes);
  /// Rewrites (dense) or drops (bounded) every bound row, counting each one
  /// as refreshed (the recovery hatch after an engine rebuild()).
  void refresh_all();
  /// refresh_all() without the accounting.
  void invalidate_all();

  // ---- Digest / introspection --------------------------------------------
  /// Splitmix64 chain over (epoch, bound count, `extra`, bindings). Dense
  /// rows are all resident, so their values are mixed in too; bounded rows
  /// are never all materialized, so the digest instead starts with the
  /// backend `tag`. Stable across platforms.
  [[nodiscard]] std::uint64_t fingerprint(
      std::uint64_t epoch, std::uint64_t tag,
      std::span<const NodeId> extra = {}) const;
  /// Bound rows as a dense DelayMatrix in row order (unbound rows
  /// kUnreachable); fills every lazy row.
  [[nodiscard]] DelayMatrix materialize();
  /// Bytes held: every row allocation (bound or recycled), the bounded
  /// tiers, the fill scratch and all binding bookkeeping.
  [[nodiscard]] std::size_t resident_bytes() const noexcept;

  [[nodiscard]] std::uint64_t rows_refreshed() const noexcept {
    return rows_refreshed_;
  }
  [[nodiscard]] std::uint64_t rows_saved() const noexcept {
    return rows_saved_;
  }
  /// Lazy (bounded) fills so far; dense fills on bind/refresh don't count.
  [[nodiscard]] std::uint64_t row_fills() const noexcept { return row_fills_; }

  /// Structural validation via the contracts failure handler: per-row
  /// arrays stay parallel, bound_count matches the bindings, node->row is
  /// the exact inverse of row->node, no row is stamped past `epoch`, dense
  /// bound rows have the full width, and no unbound row stays resident in
  /// the bounded tiers (whose own invariants are checked too).
  void check_invariants(std::uint64_t epoch) const;

 private:
  friend struct RowStoreTestPeer;  ///< corruption hook for invariant tests

  /// Dense: fills `row` in place. Bounded: drops its resident copy.
  void reload(std::size_t row);
  const std::vector<double>& fetch(std::size_t row);

  Fill fill_;
  bool dense_;
  std::size_t width_;
  std::vector<NodeId> nodes_;             ///< per row; kInvalidNode if unbound
  std::vector<std::uint64_t> epochs_;     ///< per row: epoch last filled
  std::vector<std::size_t> node_to_row_;  ///< per node; kUnbound if none
  std::size_t bound_ = 0;
  std::vector<std::vector<double>> dense_rows_;  ///< dense: per row
  QuantizedRowStore lru_;                        ///< bounded: the tiers
  std::vector<double> fill_scratch_;             ///< bounded: one fill
  std::uint64_t rows_refreshed_ = 0;
  std::uint64_t rows_saved_ = 0;
  std::uint64_t row_fills_ = 0;
};

}  // namespace tacc::topo::oracle
