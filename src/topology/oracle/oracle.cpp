#include "topology/oracle/oracle.hpp"

#include <bit>
#include <string>

#include "util/contracts.hpp"

namespace tacc::topo::oracle {

DelayOracle::DelayOracle(incr::IncrementalDelayEngine& engine)
    : engine_(&engine),
      store_(
          engine.server_count(),
          [&engine](NodeId node, std::span<double> out) {
            engine.delay_row(node, out);
            return engine.epoch();
          },
          [&engine](NodeId node) { return engine.read_through(node); }) {}

std::size_t DelayOracle::drain() {
  drain_scratch_.clear();
  const std::size_t dirty = engine_->drain_dirty(drain_scratch_);
  engine_->drain_reclassified(drain_scratch_);
  return dirty;
}

std::size_t DelayOracle::refresh() {
  const std::size_t dirty = drain();
  const std::span<const NodeId> drained(drain_scratch_);
  return store_.refresh(drained.first(dirty), drained.subspan(dirty),
                        engine_->epoch());
}

void DelayOracle::refresh_all() {
  drain();
  store_.refresh_all();
}

std::size_t DelayOracle::resident_bytes() const {
  return store_.resident_bytes() +
         drain_scratch_.capacity() * sizeof(NodeId);
}

void DelayOracle::check_invariants() const {
  store_.check_invariants(engine_->epoch());
  for (std::size_t row = 0; row < store_.row_count(); ++row) {
    const NodeId node = store_.row_node(row);
    // Values that drifted from the engine's trees are only acceptable while
    // the key is queued for the next refresh(), or the node for a
    // re-resolve.
    if (node == kInvalidNode || engine_->is_reclassified(node) ||
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
