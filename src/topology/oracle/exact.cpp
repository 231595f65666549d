#include "topology/oracle/exact.hpp"

#include <bit>
#include <cstdint>
#include <string>

#include "util/contracts.hpp"

namespace tacc::topo::oracle {

namespace {
constexpr std::uint64_t kCompressedTag = 0xEC0117ULL;
}  // namespace

ExactOracle::ExactOracle(incr::IncrementalDelayEngine& engine,
                         const OracleConfig& config)
    : DelayOracle(config.compress ? RowEncoding::kBounded : RowEncoding::kDense,
                  engine.server_count(), config.hot_rows,
                  [&engine](NodeId node) { return engine.read_through(node); }),
      engine_(&engine) {}

std::string_view ExactOracle::name() const noexcept {
  return store_.dense() ? "exact" : "exact+compress";
}

std::uint64_t ExactOracle::fill_row(std::size_t /*row*/, NodeId node,
                                    std::span<double> out) const {
  engine_->delay_row(node, out);
  return engine_->epoch();
}

DelayBounds ExactOracle::bounds_ms(std::size_t row, std::size_t server) const {
  // Exact backend: the envelope is the tree value itself, which also keeps
  // bounds certified even while a row awaits refresh().
  const double value = engine_->delay_ms(server, store_.row_node(row));
  return {value, value, true};
}

std::size_t ExactOracle::drain() {
  drain_scratch_.clear();
  const std::size_t dirty = engine_->drain_dirty(drain_scratch_);
  engine_->drain_reclassified(drain_scratch_);
  return dirty;
}

std::size_t ExactOracle::refresh() {
  const std::size_t dirty = drain();
  const std::span<const NodeId> drained(drain_scratch_);
  return store_.refresh(drained.first(dirty), drained.subspan(dirty));
}

void ExactOracle::refresh_all() {
  drain();
  store_.refresh_all();
}

std::uint64_t ExactOracle::epoch() const { return engine_->epoch(); }

std::uint64_t ExactOracle::fingerprint() const {
  return store_.fingerprint(engine_->epoch(), kCompressedTag);
}

std::size_t ExactOracle::resident_bytes() const {
  return store_.resident_bytes() +
         drain_scratch_.capacity() * sizeof(NodeId);
}

void ExactOracle::check_invariants() const {
  store_.check_invariants(engine_->epoch());
  if (!store_.dense()) return;  // lazy rows are filled from the trees
  for (std::size_t row = 0; row < store_.row_count(); ++row) {
    const NodeId node = store_.row_node(row);
    // Values that drifted from the engine's trees are only acceptable while
    // the node or its key is queued for the next refresh().
    if (node == kInvalidNode || engine_->is_dirty(node) ||
        engine_->is_dirty(store_.row_key(row))) {
      continue;
    }
    for (std::size_t j = 0; j < store_.width(); ++j) {
      TACC_CHECK_INVARIANT(
          std::bit_cast<std::uint64_t>(store_.value(row, j)) ==
              std::bit_cast<std::uint64_t>(engine_->delay_ms(j, node)),
          "stale cached delay with a clean dirty set: row " +
              std::to_string(row) + ", server " + std::to_string(j));
    }
  }
}

}  // namespace tacc::topo::oracle
