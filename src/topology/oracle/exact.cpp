#include "topology/oracle/exact.hpp"

#include <string>

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace tacc::topo::oracle {

ExactOracle::ExactOracle(incr::IncrementalDelayEngine& engine,
                         const OracleConfig& config)
    : engine_(&engine),
      compress_(config.compress),
      cache_(engine),
      store_(engine.server_count(), config.hot_rows,
             config.hot_rows * kColdPerHot) {}

std::string_view ExactOracle::name() const noexcept {
  return compress_ ? "exact+compress" : "exact";
}

std::size_t ExactOracle::server_count() const {
  return engine_->server_count();
}

void ExactOracle::bind_row(std::size_t row, NodeId node) {
  if (!compress_) {
    cache_.bind_row(row, node);
    return;
  }
  book_.bind(row, node);
  store_.erase(row);  // filled lazily on the next touch
}

void ExactOracle::unbind_row(std::size_t row) {
  if (!compress_) {
    cache_.unbind_row(row);
    return;
  }
  if (book_.unbind(row)) store_.erase(row);
}

NodeId ExactOracle::row_node(std::size_t row) const {
  return compress_ ? book_.row_node(row) : cache_.row_node(row);
}

std::size_t ExactOracle::row_count() const {
  return compress_ ? book_.nodes.size() : cache_.row_count();
}

std::size_t ExactOracle::bound_count() const {
  return compress_ ? book_.bound : cache_.bound_count();
}

const std::vector<double>& ExactOracle::fetch_row(std::size_t row) const {
  if (const std::vector<double>* resident = store_.get(row)) {
    return *resident;
  }
  const NodeId node = book_.nodes.at(row);
  TACC_REQUIRE(node != kInvalidNode, "reading an unbound oracle row");
  fill_scratch_.resize(engine_->server_count());
  for (std::size_t j = 0; j < fill_scratch_.size(); ++j) {
    fill_scratch_[j] = engine_->delay_ms(j, node);
  }
  book_.epochs[row] = engine_->epoch();
  ++stats_.row_fills;
  return store_.put(row, fill_scratch_);
}

const std::vector<double>& ExactOracle::row(std::size_t row) const {
  stats_.queries += engine_->server_count();
  if (!compress_) return cache_.row(row);
  return fetch_row(row);
}

double ExactOracle::delay_ms(std::size_t row, std::size_t server) const {
  ++stats_.queries;
  return (compress_ ? fetch_row(row) : cache_.row(row))[server];
}

DelayBounds ExactOracle::bounds_ms(std::size_t row, std::size_t server) const {
  // Exact backend: the envelope is the tree value itself, which also keeps
  // bounds certified even while a row awaits refresh().
  const NodeId node = compress_ ? book_.row_node(row) : cache_.row_node(row);
  const double value = engine_->delay_ms(server, node);
  return {value, value, true};
}

std::size_t ExactOracle::refresh() {
  if (!compress_) return cache_.refresh();
  drain_scratch_.clear();
  engine_->drain_dirty(drain_scratch_);
  std::size_t invalidated = 0;
  for (const NodeId node : drain_scratch_) {
    const std::size_t row = book_.row_of(node);
    if (row == RowBindings::kUnbound) continue;
    store_.erase(row);
    ++invalidated;
  }
  rows_refreshed_ += invalidated;
  rows_saved_ += book_.bound - invalidated;
  return invalidated;
}

void ExactOracle::refresh_all() {
  if (!compress_) {
    cache_.refresh_all();
    return;
  }
  drain_scratch_.clear();
  engine_->drain_dirty(drain_scratch_);
  store_.clear();
  rows_refreshed_ += book_.bound;
}

std::uint64_t ExactOracle::epoch() const { return engine_->epoch(); }

std::uint64_t ExactOracle::row_epoch(std::size_t row) const {
  return compress_ ? book_.epochs.at(row) : cache_.row_epoch(row);
}

std::uint64_t ExactOracle::fingerprint() const {
  if (!compress_) return cache_.fingerprint();
  // Lazy rows are never all materialized, so digest the bindings + epoch
  // (see the fingerprint contract in oracle.hpp).
  std::uint64_t state = 0x7ACC5EEDULL;
  std::uint64_t digest = 0;
  const auto mix = [&state, &digest](std::uint64_t value) {
    state ^= value;
    digest = util::splitmix64(state);
  };
  mix(0xEC0117ULL);  // backend tag
  mix(engine_->epoch());
  mix(static_cast<std::uint64_t>(book_.bound));
  for (std::size_t i = 0; i < book_.nodes.size(); ++i) {
    if (book_.nodes[i] == kInvalidNode) continue;
    mix(static_cast<std::uint64_t>(i));
    mix(static_cast<std::uint64_t>(book_.nodes[i]));
  }
  return digest;
}

std::uint64_t ExactOracle::rows_refreshed() const {
  return compress_ ? rows_refreshed_ : cache_.rows_refreshed();
}

std::uint64_t ExactOracle::rows_saved() const {
  return compress_ ? rows_saved_ : cache_.rows_saved();
}

std::size_t ExactOracle::resident_bytes() const {
  if (compress_) {
    return store_.resident_bytes() +
           book_.nodes.capacity() * sizeof(NodeId) +
           book_.epochs.capacity() * sizeof(std::uint64_t) +
           book_.node_to_row.capacity() * sizeof(std::size_t);
  }
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < cache_.row_count(); ++i) {
    bytes += sizeof(std::vector<double>);
    if (cache_.row_node(i) != kInvalidNode) {
      bytes += cache_.row(i).capacity() * sizeof(double);
    }
  }
  bytes += cache_.row_count() * (sizeof(NodeId) + sizeof(std::uint64_t));
  return bytes;
}

DelayMatrix ExactOracle::materialize() const {
  if (!compress_) return cache_.materialize();
  DelayMatrix matrix(book_.nodes.size(), engine_->server_count(),
                     kUnreachable);
  for (std::size_t i = 0; i < book_.nodes.size(); ++i) {
    if (book_.nodes[i] == kInvalidNode) continue;
    const std::vector<double>& values = fetch_row(i);
    for (std::size_t j = 0; j < values.size(); ++j) {
      matrix.set(i, j, values[j]);
    }
  }
  return matrix;
}

void ExactOracle::check_invariants() const {
  if (!compress_) {
    cache_.check_invariants();
    return;
  }
  book_.check_invariants();
  store_.check_invariants();
  for (std::size_t row = 0; row < book_.nodes.size(); ++row) {
    TACC_CHECK_INVARIANT(
        book_.nodes[row] != kInvalidNode || !store_.contains(row),
        "unbound row still resident in the store: row " + std::to_string(row));
    TACC_CHECK_INVARIANT(book_.epochs[row] <= engine_->epoch(),
                         "row stamped with an epoch from the future: row " +
                             std::to_string(row));
  }
}

}  // namespace tacc::topo::oracle
