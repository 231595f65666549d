// ExactOracle: the default DelayOracle backend — its RowStore (rowstore.hpp)
// filled from the IncrementalDelayEngine's per-server trees.
//
// Uncompressed (the default) the store is dense: every bound row is
// resident, filled on bind and rewritten by refresh() for exactly the
// engine's dirty nodes, so a link event that strands 2% of the network
// touches 2% of the bound rows. Reads are a direct vector index, and
// fingerprint() digests the epoch, the bindings and every row value.
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
  /// soundness: a bound row whose values differ from the engine's current
  /// trees must have its node in the engine's dirty set (a refresh() would
  /// rewrite it) — otherwise the oracle serves stale delays it believes are
  /// current.
  void check_invariants() const override;

 private:
  friend struct RowStoreTestPeer;  ///< corruption hook for invariant tests

  std::uint64_t fill_row(std::size_t row, NodeId node,
                         std::span<double> out) const override;

  incr::IncrementalDelayEngine* engine_;
  std::vector<NodeId> drain_scratch_;
};

}  // namespace tacc::topo::oracle
