// ExactOracle: the default DelayOracle backend — its RowStore (rowstore.hpp)
// filled from the IncrementalDelayEngine's per-server trees.
//
// Uncompressed (the default) the store is dense and keyed by the node each
// device reads through (IncrementalDelayEngine::read_through): a
// single-homed device shares its anchor router's key row and keeps only its
// access latency and epoch; a multi-homed or isolated device reads through
// its own node. Key rows are resident, filled on bind and
// rewritten by refresh() for exactly the engine's dirty key nodes, so a
// link event rewrites one row per moved router, not one per device. A read
// adds the device's latency to its key row entry — the engine's own
// addition, so served values are bit-identical to the trees. refresh() also
// drains the engine's reclassified nodes and re-resolves their keys, and
// stamps each dirty bound device's row epoch exactly as a per-device row
// store would. row() materializes into a scratch row that lasts until the
// next row() call. fingerprint() digests the epoch, the bindings and every
// served value.
//
// With config.compress set the store is bounded: rows are (re)filled
// lazily on first touch, hot rows are exact, demoted rows are
// uint16-quantized (round-up, so served values never drop below the tree
// value), rows evicted from the cold tier are recomputed on the next touch,
// and refresh() drops dirty rows rather than rewriting them. This mode is
// opt-in precisely because quantized demotion gives up bit-exactness.
#pragma once

#include <span>
#include <vector>

#include "topology/oracle/oracle.hpp"

namespace tacc::topo::oracle {

class ExactOracle final : public DelayOracle {
 public:
  /// The engine must outlive the oracle.
  explicit ExactOracle(incr::IncrementalDelayEngine& engine,
                       const OracleConfig& config = {});

  [[nodiscard]] std::string_view name() const noexcept override;
  [[nodiscard]] DelayBounds bounds_ms(std::size_t row,
                                      std::size_t server) const override;
  std::size_t refresh() override;
  void refresh_all() override;
  [[nodiscard]] std::uint64_t epoch() const override;
  [[nodiscard]] std::uint64_t fingerprint() const override;
  [[nodiscard]] std::size_t resident_bytes() const override;
  /// The store's structural invariants plus, when dense, dirty-set
  /// soundness: a bound row whose values differ bitwise from the engine's
  /// delay_ms() must have its node or its key in the engine's dirty set (a
  /// refresh() would rewrite it) — otherwise the oracle serves stale delays
  /// it believes are current.
  void check_invariants() const override;

 private:
  friend struct RowStoreTestPeer;  ///< corruption hook for invariant tests

  std::uint64_t fill_row(std::size_t row, NodeId node,
                         std::span<double> out) const override;

  /// Drains the engine's dirty set, then its reclassified nodes, into
  /// drain_scratch_; returns the dirty count.
  std::size_t drain();

  incr::IncrementalDelayEngine* engine_;
  std::vector<NodeId> drain_scratch_;
};

}  // namespace tacc::topo::oracle
