// Delay-row storage for the DelayOracle backends.
//
// RowStore is the one row store behind both backends: the row<->node
// bindings, per-row epochs, refresh accounting, the fingerprint and the
// structural invariants, over rows held in one of two encodings fixed at
// construction:
//
//   dense    rows are keyed by the tree node they read through (the default
//            ExactOracle). A single-homed device reads through its anchor
//            router, any other node through itself; the backend's resolve
//            callback says which. Each key row is stored once, contiguously,
//            refcounted by the bound rows that read through it, filled on
//            bind and rewritten on refresh(). A bound row keeps only its
//            key (and its offset), its access latency and its epoch, and
//            serves key_row[j] + latency — the same double addition the
//            engine serves a single-homed device with, so values stay
//            bit-identical while a link event rewrites one row per moved
//            key instead of one per device;
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

#include "topology/incremental/engine.hpp"
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
  kDense,    ///< rows read through shared, always-resident key rows
  kBounded,  ///< rows in a QuantizedRowStore, filled lazily
};

class RowStore {
 public:
  static constexpr std::size_t kUnbound = static_cast<std::size_t>(-1);

  /// Writes the current values of `node`'s row into `out` (width() entries)
  /// and returns the epoch they are current at. Bounded: `row` is the bound
  /// row being filled. Dense: `node` is a key and `row` is kUnbound, since a
  /// key row belongs to every row that reads through it.
  using Fill = std::function<std::uint64_t(std::size_t row, NodeId node,
                                           std::span<double> out)>;
  /// Dense: the key a node bound to a row reads through, and the latency
  /// added to every entry of the key row. Empty: every node is its own key,
  /// at latency 0.
  using Resolve = std::function<incr::ReadThrough(NodeId node)>;

  /// `width` values per row; `hot_rows` sizes the bounded encoding's hot
  /// tier (the cold tier holds kColdPerHot x as many) and is unused when
  /// dense; `resolve` is unused when bounded.
  RowStore(RowEncoding encoding, std::size_t width, std::size_t hot_rows,
           Fill fill, Resolve resolve = {});

  /// Dense: the record each row keeps (node, epoch, key, key row offset,
  /// latency), the part of resident_bytes() that grows with the rows rather
  /// than the keys.
  static constexpr std::size_t kDenseRowBytes =
      sizeof(NodeId) + sizeof(std::uint64_t) + sizeof(std::uint32_t) +
      sizeof(std::size_t) + sizeof(double);

  [[nodiscard]] bool dense() const noexcept { return dense_; }
  [[nodiscard]] std::size_t width() const noexcept { return width_; }

  // ---- Bindings -----------------------------------------------------------
  /// Binds `row` (growing storage as needed) to `node`, rebinding in place
  /// if the row was already bound. Dense resolves the node's key and fills
  /// the key row now (so the row serves current values, and so do the other
  /// rows reading through that key); bounded drops any resident copy so the
  /// next touch fills it.
  void bind(std::size_t row, NodeId node);
  /// Detaches `row` from its node; false if it was not bound. Dense releases
  /// the row's key; a key row no row reads through is freed, and its
  /// allocation is kept for the next key.
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
  /// Epoch at which `row` was last filled (dense: bound or refreshed).
  [[nodiscard]] std::uint64_t row_epoch(std::size_t row) const {
    return epochs_.at(row);
  }
  /// Dense: the key bound `row` reads through.
  [[nodiscard]] NodeId row_key(std::size_t row) const {
    return keys_.at(row_key_.at(row)).node;
  }

  // ---- Rows ---------------------------------------------------------------
  /// The values of bound `row`. Dense: the key row plus the row's latency,
  /// materialized into a scratch row that the next row() call overwrites —
  /// read it before asking for another row. Bounded: the resident copy, or
  /// a fresh fill (stamping the row epoch and counting a row fill); the
  /// reference stays valid until hot-set eviction.
  [[nodiscard]] const std::vector<double>& row(std::size_t row) {
    return dense_ ? materialize_row(row) : fetch(row);
  }
  /// One entry of bound `row`. Dense: key row entry + latency, the same
  /// double addition the engine serves a single-homed device with.
  [[nodiscard]] double value(std::size_t row, std::size_t column) {
    if (!dense_) return fetch(row)[column];
    return key_values_[row_offset_[row] + column] + row_latency_[row];
  }

  /// Drained invalidations: the values of `nodes` moved, and the key
  /// `reclassified` nodes read through may have changed, values moved or
  /// not. The caller reports every change of key in `reclassified`. Dense
  /// re-resolves the bound rows of `reclassified`, then rewrites the key
  /// rows of `nodes` and those read by bound rows in `nodes` (each once)
  /// and stamps those rows with the fill epoch; bounded drops the rows
  /// bound to `nodes` and ignores `reclassified`. Nodes without a bound row
  /// or key row are skipped. Counts the pass into rows_refreshed/rows_saved,
  /// records the bound rows in `nodes` as refreshed_rows() and returns
  /// their count.
  std::size_t refresh(std::span<const NodeId> nodes,
                      std::span<const NodeId> reclassified = {});
  /// Rewrites (dense) or drops (bounded) every bound row, counting each one
  /// as refreshed and recording all of them as refreshed_rows() (the
  /// recovery hatch after an engine rebuild()).
  void refresh_all();
  /// The bound rows the last refresh() or refresh_all() counted, each once:
  /// every row whose served delays may have moved since. Valid until the
  /// next of those calls.
  [[nodiscard]] std::span<const std::size_t> refreshed_rows() const noexcept {
    return refreshed_rows_;
  }
  /// refresh_all() without the accounting.
  void invalidate_all();

  // ---- Digest / introspection --------------------------------------------
  /// Splitmix64 chain over (epoch, bound count, `extra`, bindings). Dense
  /// rows are all served from resident key rows, so their values are mixed
  /// in too; bounded rows are never all materialized, so the digest instead
  /// starts with the backend `tag`. Stable across platforms.
  [[nodiscard]] std::uint64_t fingerprint(
      std::uint64_t epoch, std::uint64_t tag,
      std::span<const NodeId> extra = {}) const;
  /// Bound rows as a dense DelayMatrix in row order (unbound rows
  /// kUnreachable); fills every lazy row.
  [[nodiscard]] DelayMatrix materialize();
  /// Bytes held: the key rows (live or freed), the per-row records, the
  /// bounded tiers, the scratch rows and all binding bookkeeping.
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
  /// the exact inverse of row->node, no row or key row is stamped past
  /// `epoch`, no unbound row stays resident in the bounded tiers (whose own
  /// invariants are checked too), and, dense, every bound row reads through
  /// a live key, each key's refcount equals the rows reading through it, no
  /// key row is left without one, and node->key is the inverse of
  /// key->node.
  void check_invariants(std::uint64_t epoch) const;

 private:
  friend struct RowStoreTestPeer;  ///< corruption hook for invariant tests

  static constexpr std::uint32_t kNoKey = static_cast<std::uint32_t>(-1);
  /// A shared dense row: `node`'s values, read by `refs` bound rows.
  struct Key {
    NodeId node = kInvalidNode;
    std::uint32_t refs = 0;
    std::uint64_t epoch = 0;  ///< returned by the last fill
    std::uint64_t pass = 0;   ///< refresh pass of the last fill
  };

  /// Bounded: the resident copy of `row`, filled on a miss.
  const std::vector<double>& fetch(std::size_t row);
  /// Dense: `row`'s values into row_scratch_.
  const std::vector<double>& materialize_row(std::size_t row);
  /// Dense: points bound `row` at its node's current key and latency.
  void resolve_row(std::size_t row);
  std::uint32_t acquire_key(NodeId node);
  void release_key(std::uint32_t key);
  /// Dense: fills `key`'s row unless this refresh pass already did.
  void fill_key(std::uint32_t key);
  /// Dense: fills bound `row`'s key row (once per pass) and stamps the row
  /// with the fill epoch.
  void stamp_row(std::size_t row);
  /// Dense: resolve_row() then stamp_row().
  void reload_row(std::size_t row);

  Fill fill_;
  Resolve resolve_;
  bool dense_;
  std::size_t width_;
  std::vector<NodeId> nodes_;             ///< per row; kInvalidNode if unbound
  std::vector<std::uint64_t> epochs_;     ///< per row: epoch last filled
  std::vector<std::size_t> node_to_row_;  ///< per node; kUnbound if none
  std::size_t bound_ = 0;
  // Dense: per row, the key it reads through and the latency added to it.
  std::vector<std::uint32_t> row_key_;  ///< kNoKey if unbound
  /// key * width(), the key row's first entry: value() needs no multiply.
  std::vector<std::size_t> row_offset_;
  std::vector<double> row_latency_;
  // Dense: the key rows, one contiguous width()-sized block per key.
  std::vector<Key> keys_;
  std::vector<double> key_values_;
  std::vector<std::uint32_t> key_of_node_;  ///< per node; kNoKey if none
  std::vector<std::uint32_t> free_keys_;    ///< freed key slots, reused first
  std::uint64_t pass_ = 1;                  ///< bumped per refresh pass
  QuantizedRowStore lru_;                   ///< bounded: the tiers
  std::vector<double> fill_scratch_;        ///< bounded: one fill
  std::vector<double> row_scratch_;         ///< dense: the last row() read
  std::vector<std::size_t> refreshed_rows_;  ///< see refreshed_rows()
  std::uint64_t rows_refreshed_ = 0;
  std::uint64_t rows_saved_ = 0;
  std::uint64_t row_fills_ = 0;
};

}  // namespace tacc::topo::oracle
