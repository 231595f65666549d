// ExactOracle: the default DelayOracle backend.
//
// Uncompressed (the default), it is a pure pass-through to an owned
// DelayMatrixCache — every query, refresh count and fingerprint is
// bit-identical to driving the cache directly, which is what keeps
// `--oracle=exact` indistinguishable from pre-oracle builds.
//
// With config.compress set, rows instead live in a bounded
// QuantizedRowStore and are (re)filled lazily from the engine's trees on
// first touch: hot rows are exact, demoted rows are uint16-quantized
// (round-up, so served values never drop below the tree value), and rows
// evicted from the cold tier are recomputed on the next touch. refresh()
// then *invalidates* dirty rows rather than rewriting them. This mode is
// opt-in precisely because quantized demotion gives up bit-exactness.
#pragma once

#include <vector>

#include "topology/incremental/cache.hpp"
#include "topology/oracle/oracle.hpp"
#include "topology/oracle/rowstore.hpp"

namespace tacc::topo::oracle {

class ExactOracle final : public DelayOracle {
 public:
  /// The engine must outlive the oracle.
  explicit ExactOracle(incr::IncrementalDelayEngine& engine,
                       const OracleConfig& config = {});

  [[nodiscard]] std::string_view name() const noexcept override;
  [[nodiscard]] std::size_t server_count() const override;

  void bind_row(std::size_t row, NodeId node) override;
  void unbind_row(std::size_t row) override;
  [[nodiscard]] NodeId row_node(std::size_t row) const override;
  [[nodiscard]] std::size_t row_count() const override;
  [[nodiscard]] std::size_t bound_count() const override;

  [[nodiscard]] const std::vector<double>& row(
      std::size_t row) const override;
  [[nodiscard]] double delay_ms(std::size_t row,
                                std::size_t server) const override;
  [[nodiscard]] DelayBounds bounds_ms(std::size_t row,
                                      std::size_t server) const override;

  std::size_t refresh() override;
  void refresh_all() override;
  [[nodiscard]] std::uint64_t epoch() const override;
  [[nodiscard]] std::uint64_t row_epoch(std::size_t row) const override;
  [[nodiscard]] std::uint64_t fingerprint() const override;
  [[nodiscard]] std::uint64_t rows_refreshed() const override;
  [[nodiscard]] std::uint64_t rows_saved() const override;

  [[nodiscard]] std::size_t resident_bytes() const override;
  [[nodiscard]] const OracleStats& stats() const override { return stats_; }
  [[nodiscard]] DelayMatrix materialize() const override;
  void check_invariants() const override;

 private:
  /// Resident (or freshly filled) values for a bound row (compressed mode).
  const std::vector<double>& fetch_row(std::size_t row) const;

  incr::IncrementalDelayEngine* engine_;
  bool compress_;
  // Uncompressed mode: the cache IS the implementation.
  mutable incr::DelayMatrixCache cache_;
  // Compressed mode: bindings + bounded store, filled lazily (mutable: the
  // lazy fill stamps epochs on logically-const reads; externally
  // synchronized, see oracle.hpp).
  mutable RowBindings book_;
  mutable QuantizedRowStore store_;
  mutable std::vector<double> fill_scratch_;
  std::vector<NodeId> drain_scratch_;
  std::uint64_t rows_refreshed_ = 0;
  std::uint64_t rows_saved_ = 0;
  mutable OracleStats stats_;
};

}  // namespace tacc::topo::oracle
