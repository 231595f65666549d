// Delay-row storage for the DelayOracle.
//
// RowStore holds the row<->node bindings, per-row epochs, refresh
// accounting, the fingerprint and the structural invariants. Rows are keyed
// by the tree node they read through: a single-homed device reads through
// its anchor router, any other node through itself; the resolve callback
// says which. Each key row is stored once, contiguously, refcounted by the
// bound rows that read through it, filled on bind and rewritten on
// refresh(). A bound row keeps only its key (and its offset), its access
// latency and its bind epoch, and serves key_row[j] + latency — the same
// double addition the engine serves a single-homed device with, so values
// stay bit-identical while a link event rewrites one row per moved key and
// touches no device's record at all.
//
// Epochs are per key and per row: a bound row's epoch is the later of its
// bind epoch and its key row's fill epoch. A served value never changes
// without its row's epoch rising; the epoch may also rise when a key moves
// by less than the row's latency can show (old + w == new + w).
//
// The owner supplies the key row values through a fill callback; the store
// decides when to call it.
//
// Thread safety: none. row() writes one scratch row, so the store inherits
// the owning oracle's external serialization (the session cluster mutex in
// the serving layer).
#pragma once

#include <algorithm>
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
  /// if the row was already bound, and stamps it with the fill epoch.
  /// Resolves the node's key and fills the key row now, so the row serves
  /// current values, and so do the other rows reading through that key; a
  /// shared key row whose values did not move keeps its epoch.
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
  /// The later of bound `row`'s bind epoch (bind, or a re-resolve in
  /// refresh()) and its key row's fill epoch.
  [[nodiscard]] std::uint64_t row_epoch(std::size_t row) const {
    return std::max(epochs_.at(row), keys_[row_key_.at(row)].epoch);
  }
  /// The node bound `row` reads through.
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
  /// One entry of live key slot `key`'s row.
  [[nodiscard]] double key_value(std::uint32_t key, std::size_t column) const {
    return key_values_[std::size_t{key} * width_ + column];
  }

  /// Drained invalidations at engine epoch `epoch`: the key rows of `nodes`
  /// moved, and the key `reclassified` nodes read through, or their
  /// latency, may have changed. The caller reports every change of key in
  /// `reclassified`. Re-resolves the bound rows of `reclassified` and stamps
  /// them with `epoch`, then rewrites the key rows of `nodes` (nodes
  /// without a key row are skipped) and lists them as moved_keys(). No
  /// other row's record is touched: a row reading a moved key takes its
  /// epoch from the key. Counts the bound rows whose served values may have
  /// moved into rows_refreshed/rows_saved and returns their count: the sum
  /// of the moved keys' refcounts, plus the re-resolved rows reading an
  /// unmoved key.
  std::size_t refresh(std::span<const NodeId> nodes,
                      std::span<const NodeId> reclassified,
                      std::uint64_t epoch);
  /// Re-resolves every bound row and rewrites every key row, counting each
  /// bound row as refreshed and listing every live key as moved (the
  /// recovery hatch after an engine rebuild()).
  void refresh_all();
  /// The key slots the last refresh() or refresh_all() rewrote, each once:
  /// a bound row outside them (and not re-resolved) serves what it served
  /// before. Valid until the next of those calls.
  [[nodiscard]] std::span<const std::uint32_t> moved_keys() const noexcept {
    return moved_keys_;
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
    std::uint64_t epoch = 0;  ///< returned by the last fill that moved it
    std::uint64_t pass = 0;   ///< refresh pass of the last fill
    std::uint64_t moved = 0;  ///< refresh pass that last listed it as moved
  };

  /// Points bound `row` at its node's current key and latency.
  void resolve_row(std::size_t row);
  std::uint32_t acquire_key(NodeId node);
  void release_key(std::uint32_t key);
  /// Fills `key`'s row unless this refresh pass already did.
  void fill_key(std::uint32_t key);
  /// Fills `key` (once per pass) and lists it in moved_keys().
  void move_key(std::uint32_t key);

  Fill fill_;
  Resolve resolve_;
  std::size_t width_;
  std::vector<NodeId> nodes_;             ///< per row; kInvalidNode if unbound
  std::vector<std::uint64_t> epochs_;     ///< per row: bind epoch
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
  std::vector<double> fill_scratch_;        ///< a shared key row's refill
  std::vector<std::uint32_t> moved_keys_;   ///< see moved_keys()
  std::uint64_t rows_refreshed_ = 0;
  std::uint64_t rows_saved_ = 0;
};

}  // namespace tacc::topo::oracle
