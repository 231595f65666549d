// Delay-row storage for the DelayOracle.
//
// RowStore holds the row<->node bindings, per-row epochs, refresh
// accounting, the fingerprint and the structural invariants. Rows are keyed
// by the tree node they read through: a single-homed device reads through
// its anchor router, any other node through itself; the resolve callback
// says which. Each key row is stored once, contiguously, refcounted by the
// bound rows that read through it, filled on bind and rewritten on
// refresh(). A bound row keeps only its key (and its offset), its access
// latency and its epoch, and serves key_row[j] + latency — the same double
// addition the engine serves a single-homed device with, so values stay
// bit-identical while a link event rewrites one row per moved key instead
// of one per device.
//
// The owner supplies the key row values through a fill callback; the store
// decides when to call it.
//
// Thread safety: none. row() writes one scratch row, so the store inherits
// the owning oracle's external serialization (the session cluster mutex in
// the serving layer).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "topology/incremental/engine.hpp"
#include "topology/network.hpp"

namespace tacc::topo::oracle {

class RowStore {
 public:
  static constexpr std::size_t kUnbound = static_cast<std::size_t>(-1);

  /// Writes the current values of key `node`'s row into `out` (width()
  /// entries) and returns the epoch they are current at.
  using Fill = std::function<std::uint64_t(NodeId node, std::span<double> out)>;
  /// The key a node bound to a row reads through, and the latency added to
  /// every entry of the key row. Empty: every node is its own key, at
  /// latency 0.
  using Resolve = std::function<incr::ReadThrough(NodeId node)>;

  /// `width` values per row.
  RowStore(std::size_t width, Fill fill, Resolve resolve = {});

  /// The record each row keeps (node, epoch, key, key row offset, latency),
  /// the part of resident_bytes() that grows with the rows rather than the
  /// keys.
  static constexpr std::size_t kRowBytes =
      sizeof(NodeId) + sizeof(std::uint64_t) + sizeof(std::uint32_t) +
      sizeof(std::size_t) + sizeof(double);

  [[nodiscard]] std::size_t width() const noexcept { return width_; }

  // ---- Bindings -----------------------------------------------------------
  /// Binds `row` (growing storage as needed) to `node`, rebinding in place
  /// if the row was already bound. Resolves the node's key and fills the
  /// key row now, so the row serves current values, and so do the other
  /// rows reading through that key.
  void bind(std::size_t row, NodeId node);
  /// Detaches `row` from its node and releases its key; false if it was not
  /// bound. A key row no row reads through is freed, and its allocation is
  /// kept for the next key.
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
  /// Epoch at which `row` was last filled (bound or refreshed).
  [[nodiscard]] std::uint64_t row_epoch(std::size_t row) const {
    return epochs_.at(row);
  }
  /// The key bound `row` reads through.
  [[nodiscard]] NodeId row_key(std::size_t row) const {
    return keys_.at(row_key_.at(row)).node;
  }

  // ---- Rows ---------------------------------------------------------------
  /// The values of bound `row`: the key row plus the row's latency,
  /// materialized into a scratch row that the next row() call overwrites —
  /// read it before asking for another row.
  [[nodiscard]] const std::vector<double>& row(std::size_t row);
  /// One entry of bound `row`: key row entry + latency, the same double
  /// addition the engine serves a single-homed device with.
  [[nodiscard]] double value(std::size_t row, std::size_t column) const {
    return key_values_[row_offset_[row] + column] + row_latency_[row];
  }

  /// Drained invalidations: the values of `nodes` moved, and the key
  /// `reclassified` nodes read through may have changed, values moved or
  /// not. The caller reports every change of key in `reclassified`.
  /// Re-resolves the bound rows of `reclassified`, then rewrites the key
  /// rows of `nodes` and those read by bound rows in `nodes` (each once)
  /// and stamps those rows with the fill epoch. Nodes without a bound row
  /// or key row are skipped. Counts the pass into rows_refreshed/rows_saved,
  /// records the bound rows in `nodes` as refreshed_rows() and returns
  /// their count.
  std::size_t refresh(std::span<const NodeId> nodes,
                      std::span<const NodeId> reclassified = {});
  /// Rewrites every bound row, counting each one as refreshed and recording
  /// all of them as refreshed_rows() (the recovery hatch after an engine
  /// rebuild()).
  void refresh_all();
  /// The bound rows the last refresh() or refresh_all() counted, each once:
  /// every row whose served delays may have moved since. Valid until the
  /// next of those calls.
  [[nodiscard]] std::span<const std::size_t> refreshed_rows() const noexcept {
    return refreshed_rows_;
  }

  // ---- Digest / introspection --------------------------------------------
  /// Splitmix64 chain over (epoch, bound count, bindings, every served
  /// value). Stable across platforms.
  [[nodiscard]] std::uint64_t fingerprint(std::uint64_t epoch) const;
  /// Bound rows as a dense DelayMatrix in row order (unbound rows
  /// kUnreachable).
  [[nodiscard]] DelayMatrix materialize() const;
  /// Bytes held: the key rows (live or freed), the per-row records, the
  /// scratch row and all binding bookkeeping.
  [[nodiscard]] std::size_t resident_bytes() const noexcept;

  [[nodiscard]] std::uint64_t rows_refreshed() const noexcept {
    return rows_refreshed_;
  }
  [[nodiscard]] std::uint64_t rows_saved() const noexcept {
    return rows_saved_;
  }

  /// Structural validation via the contracts failure handler: per-row
  /// arrays stay parallel, bound_count matches the bindings, node->row is
  /// the exact inverse of row->node, no row or key row is stamped past
  /// `epoch`, every bound row reads through a live key, each key's refcount
  /// equals the rows reading through it, no key row is left without one,
  /// and node->key is the inverse of key->node.
  void check_invariants(std::uint64_t epoch) const;

 private:
  friend struct RowStoreTestPeer;  ///< corruption hook for invariant tests

  static constexpr std::uint32_t kNoKey = static_cast<std::uint32_t>(-1);
  /// A shared row: `node`'s values, read by `refs` bound rows.
  struct Key {
    NodeId node = kInvalidNode;
    std::uint32_t refs = 0;
    std::uint64_t epoch = 0;  ///< returned by the last fill
    std::uint64_t pass = 0;   ///< refresh pass of the last fill
  };

  /// Points bound `row` at its node's current key and latency.
  void resolve_row(std::size_t row);
  std::uint32_t acquire_key(NodeId node);
  void release_key(std::uint32_t key);
  /// Fills `key`'s row unless this refresh pass already did.
  void fill_key(std::uint32_t key);
  /// Fills bound `row`'s key row (once per pass) and stamps the row with
  /// the fill epoch.
  void stamp_row(std::size_t row);
  /// resolve_row() then stamp_row().
  void reload_row(std::size_t row);

  Fill fill_;
  Resolve resolve_;
  std::size_t width_;
  std::vector<NodeId> nodes_;             ///< per row; kInvalidNode if unbound
  std::vector<std::uint64_t> epochs_;     ///< per row: epoch last filled
  std::vector<std::size_t> node_to_row_;  ///< per node; kUnbound if none
  std::size_t bound_ = 0;
  // Per row, the key it reads through and the latency added to it.
  std::vector<std::uint32_t> row_key_;  ///< kNoKey if unbound
  /// key * width(), the key row's first entry: value() needs no multiply.
  std::vector<std::size_t> row_offset_;
  std::vector<double> row_latency_;
  // The key rows, one contiguous width()-sized block per key.
  std::vector<Key> keys_;
  std::vector<double> key_values_;
  std::vector<std::uint32_t> key_of_node_;  ///< per node; kNoKey if none
  std::vector<std::uint32_t> free_keys_;    ///< freed key slots, reused first
  std::uint64_t pass_ = 1;                  ///< bumped per refresh pass
  std::vector<double> row_scratch_;         ///< the last row() read
  std::vector<std::size_t> refreshed_rows_;  ///< see refreshed_rows()
  std::uint64_t rows_refreshed_ = 0;
  std::uint64_t rows_saved_ = 0;
};

}  // namespace tacc::topo::oracle
