#include "topology/oracle/rowstore.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>

#include "topology/shortest_paths.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace tacc::topo::oracle {

namespace {
constexpr std::uint16_t kInfCode = 65535;
constexpr double kMaxCode = 65534.0;
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

QuantizedRowStore::QuantizedRowStore(std::size_t width,
                                     std::size_t hot_capacity,
                                     std::size_t cold_capacity)
    : width_(width),
      hot_capacity_(std::max<std::size_t>(1, hot_capacity)),
      cold_capacity_(std::max<std::size_t>(1, cold_capacity)) {}

void QuantizedRowStore::demote_lru_hot() {
  HotEntry victim = std::move(hot_.back());
  hot_index_.erase(victim.row);
  hot_.pop_back();

  if (cold_.size() >= cold_capacity_) {
    cold_index_.erase(cold_.back().row);
    cold_.pop_back();  // dropped; the oracle recomputes on the next touch
  }
  if (!victim.decoded_from.codes.empty()) {
    cold_.push_front(std::move(victim.decoded_from));
    cold_index_[cold_.front().row] = cold_.begin();
    return;
  }
  double max_finite = 0.0;
  for (const double v : victim.values) {
    if (v != kInf) max_finite = std::max(max_finite, v);
  }
  ColdEntry entry;
  entry.row = victim.row;
  entry.scale = max_finite > 0.0 ? max_finite / kMaxCode : 1.0;
  entry.codes.resize(victim.values.size());
  for (std::size_t j = 0; j < victim.values.size(); ++j) {
    const double v = victim.values[j];
    if (v == kInf) {
      entry.codes[j] = kInfCode;
    } else {
      // Round UP so decode never undercuts the stored value.
      const double code = std::ceil(v / entry.scale);
      entry.codes[j] =
          static_cast<std::uint16_t>(std::min(code, kMaxCode));
    }
  }
  cold_.push_front(std::move(entry));
  cold_index_[cold_.front().row] = cold_.begin();
}

QuantizedRowStore::HotEntry& QuantizedRowStore::insert_hot(
    std::size_t row, std::vector<double> values) {
  while (hot_.size() >= hot_capacity_) demote_lru_hot();
  hot_.push_front(HotEntry{row, std::move(values), {}});
  hot_index_[row] = hot_.begin();
  return hot_.front();
}

const std::vector<double>& QuantizedRowStore::put(
    std::size_t row, std::span<const double> values) {
  erase(row);
  return insert_hot(row, std::vector<double>(values.begin(), values.end()))
      .values;
}

const std::vector<double>* QuantizedRowStore::get(std::size_t row) {
  if (const auto hot = hot_index_.find(row); hot != hot_index_.end()) {
    hot_.splice(hot_.begin(), hot_, hot->second);  // touch: move to front
    return &hot_.front().values;
  }
  const auto cold = cold_index_.find(row);
  if (cold == cold_index_.end()) return nullptr;
  const auto entry_it = cold->second;
  decode_scratch_.resize(entry_it->codes.size());
  for (std::size_t j = 0; j < entry_it->codes.size(); ++j) {
    decode_scratch_[j] =
        entry_it->codes[j] == kInfCode
            ? kInf
            : static_cast<double>(entry_it->codes[j]) * entry_it->scale;
  }
  ColdEntry decoded_from = std::move(*entry_it);
  cold_index_.erase(cold);
  cold_.erase(entry_it);
  HotEntry& entry = insert_hot(row, std::move(decode_scratch_));
  entry.decoded_from = std::move(decoded_from);
  return &entry.values;
}

bool QuantizedRowStore::contains(std::size_t row) const noexcept {
  return hot_index_.contains(row) || cold_index_.contains(row);
}

void QuantizedRowStore::erase(std::size_t row) {
  if (const auto hot = hot_index_.find(row); hot != hot_index_.end()) {
    hot_.erase(hot->second);
    hot_index_.erase(hot);
    return;
  }
  if (const auto cold = cold_index_.find(row); cold != cold_index_.end()) {
    cold_.erase(cold->second);
    cold_index_.erase(cold);
  }
}

void QuantizedRowStore::clear() {
  hot_.clear();
  cold_.clear();
  hot_index_.clear();
  cold_index_.clear();
}

std::size_t QuantizedRowStore::resident_bytes() const noexcept {
  std::size_t bytes = decode_scratch_.capacity() * sizeof(double);
  for (const HotEntry& entry : hot_) {
    bytes += sizeof(HotEntry) + entry.values.capacity() * sizeof(double) +
             entry.decoded_from.codes.capacity() * sizeof(std::uint16_t);
  }
  for (const ColdEntry& entry : cold_) {
    bytes += sizeof(ColdEntry) + entry.codes.capacity() * sizeof(std::uint16_t);
  }
  bytes += hot_index_.size() *
           (sizeof(std::size_t) + sizeof(std::list<HotEntry>::iterator));
  bytes += cold_index_.size() *
           (sizeof(std::size_t) + sizeof(std::list<ColdEntry>::iterator));
  return bytes;
}

void QuantizedRowStore::check_invariants() const {
  TACC_CHECK_INVARIANT(hot_.size() <= hot_capacity_,
                       "hot tier past capacity");
  TACC_CHECK_INVARIANT(cold_.size() <= cold_capacity_,
                       "cold tier past capacity");
  TACC_CHECK_INVARIANT(hot_index_.size() == hot_.size() &&
                           cold_index_.size() == cold_.size(),
                       "tier index size out of sync with its list");
  for (auto it = hot_.begin(); it != hot_.end(); ++it) {
    const auto indexed = hot_index_.find(it->row);
    TACC_CHECK_INVARIANT(indexed != hot_index_.end() && indexed->second == it,
                         "hot row missing from the index: row " +
                             std::to_string(it->row));
    TACC_CHECK_INVARIANT(it->values.size() == width_,
                         "hot row has the wrong width: row " +
                             std::to_string(it->row));
    TACC_CHECK_INVARIANT(!cold_index_.contains(it->row),
                         "row resident in both tiers: row " +
                             std::to_string(it->row));
    TACC_CHECK_INVARIANT(it->decoded_from.codes.empty() ||
                             it->decoded_from.codes.size() == width_,
                         "hot row decoded from a cold row of the wrong "
                         "width: row " +
                             std::to_string(it->row));
  }
  for (auto it = cold_.begin(); it != cold_.end(); ++it) {
    const auto indexed = cold_index_.find(it->row);
    TACC_CHECK_INVARIANT(indexed != cold_index_.end() && indexed->second == it,
                         "cold row missing from the index: row " +
                             std::to_string(it->row));
    TACC_CHECK_INVARIANT(it->codes.size() == width_,
                         "cold row has the wrong width: row " +
                             std::to_string(it->row));
    TACC_CHECK_INVARIANT(it->scale > 0.0 && std::isfinite(it->scale),
                         "cold row scale must be positive and finite: row " +
                             std::to_string(it->row));
  }
}

RowStore::RowStore(RowEncoding encoding, std::size_t width,
                   std::size_t hot_rows, Fill fill)
    : fill_(std::move(fill)),
      dense_(encoding == RowEncoding::kDense),
      width_(width),
      lru_(width, hot_rows, hot_rows * kColdPerHot) {}

void RowStore::reload(std::size_t row) {
  if (!dense_) {
    lru_.erase(row);
    return;
  }
  std::vector<double>& values = dense_rows_[row];
  values.resize(width_);
  epochs_[row] = fill_(row, nodes_[row], values);
}

const std::vector<double>& RowStore::fetch(std::size_t row) {
  if (const std::vector<double>* resident = lru_.get(row)) {
    return *resident;
  }
  const NodeId node = nodes_.at(row);
  TACC_REQUIRE(node != kInvalidNode, "reading an unbound oracle row");
  fill_scratch_.resize(width_);
  epochs_[row] = fill_(row, node, fill_scratch_);
  ++row_fills_;
  return lru_.put(row, fill_scratch_);
}

void RowStore::bind(std::size_t row, NodeId node) {
  if (row >= nodes_.size()) {
    nodes_.resize(row + 1, kInvalidNode);
    epochs_.resize(row + 1, 0);
    if (dense_) dense_rows_.resize(row + 1);
  }
  if (node >= node_to_row_.size()) node_to_row_.resize(node + 1, kUnbound);
  if (nodes_[row] != kInvalidNode) {
    node_to_row_[nodes_[row]] = kUnbound;
  } else {
    ++bound_;
  }
  nodes_[row] = node;
  node_to_row_[node] = row;
  reload(row);
}

bool RowStore::unbind(std::size_t row) {
  if (row >= nodes_.size() || nodes_[row] == kInvalidNode) return false;
  node_to_row_[nodes_[row]] = kUnbound;
  nodes_[row] = kInvalidNode;
  --bound_;
  if (!dense_) lru_.erase(row);
  return true;
}

std::size_t RowStore::refresh(std::span<const NodeId> nodes) {
  std::size_t refreshed = 0;
  for (const NodeId node : nodes) {
    const std::size_t row = row_of(node);
    if (row == kUnbound) continue;
    reload(row);
    ++refreshed;
  }
  rows_refreshed_ += refreshed;
  rows_saved_ += bound_ > refreshed ? bound_ - refreshed : 0;
  return refreshed;
}

void RowStore::invalidate_all() {
  if (!dense_) {
    lru_.clear();
    return;
  }
  for (std::size_t row = 0; row < nodes_.size(); ++row) {
    if (nodes_[row] != kInvalidNode) reload(row);
  }
}

void RowStore::refresh_all() {
  invalidate_all();
  rows_refreshed_ += bound_;
}

std::uint64_t RowStore::fingerprint(std::uint64_t epoch, std::uint64_t tag,
                                    std::span<const NodeId> extra) const {
  // Same splitmix64 chaining as Scenario::fingerprint(): order-sensitive,
  // platform-stable. The epoch ties the digest to the mutation history even
  // when a fail/restore pair returns the values to their start state.
  std::uint64_t state = 0x7ACC5EEDULL;
  std::uint64_t digest = 0;
  const auto mix = [&state, &digest](std::uint64_t value) {
    state ^= value;
    digest = util::splitmix64(state);
  };
  if (!dense_) mix(tag);
  mix(epoch);
  mix(static_cast<std::uint64_t>(bound_));
  for (const NodeId value : extra) mix(static_cast<std::uint64_t>(value));
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i] == kInvalidNode) continue;
    mix(static_cast<std::uint64_t>(i));
    mix(static_cast<std::uint64_t>(nodes_[i]));
    if (!dense_) continue;
    for (const double value : dense_rows_[i]) {
      mix(std::bit_cast<std::uint64_t>(value));
    }
  }
  return digest;
}

DelayMatrix RowStore::materialize() {
  DelayMatrix matrix(nodes_.size(), width_, kUnreachable);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i] == kInvalidNode) continue;
    const std::vector<double>& values = row(i);
    for (std::size_t j = 0; j < values.size(); ++j) {
      matrix.set(i, j, values[j]);
    }
  }
  return matrix;
}

std::size_t RowStore::resident_bytes() const noexcept {
  std::size_t bytes = lru_.resident_bytes() +
                      fill_scratch_.capacity() * sizeof(double) +
                      nodes_.capacity() * sizeof(NodeId) +
                      epochs_.capacity() * sizeof(std::uint64_t) +
                      node_to_row_.capacity() * sizeof(std::size_t) +
                      dense_rows_.capacity() * sizeof(std::vector<double>);
  for (const std::vector<double>& values : dense_rows_) {
    bytes += values.capacity() * sizeof(double);
  }
  return bytes;
}

void RowStore::check_invariants(std::uint64_t epoch) const {
  TACC_CHECK_INVARIANT(
      epochs_.size() == nodes_.size() &&
          dense_rows_.size() == (dense_ ? nodes_.size() : 0),
      "row/node/epoch arrays must stay parallel");
  lru_.check_invariants();

  std::size_t bound_seen = 0;
  for (std::size_t row = 0; row < nodes_.size(); ++row) {
    const NodeId node = nodes_[row];
    TACC_CHECK_INVARIANT(epochs_[row] <= epoch,
                         "row stamped with an epoch from the future: row " +
                             std::to_string(row));
    if (node == kInvalidNode) {
      TACC_CHECK_INVARIANT(!lru_.contains(row),
                           "unbound row still resident in the store: row " +
                               std::to_string(row));
      continue;
    }
    ++bound_seen;
    TACC_CHECK_INVARIANT(node < node_to_row_.size() &&
                             node_to_row_[node] == row,
                         "bound row missing from the node->row index: row " +
                             std::to_string(row));
    TACC_CHECK_INVARIANT(!dense_ || dense_rows_[row].size() == width_,
                         "bound row has the wrong width: row " +
                             std::to_string(row));
  }
  TACC_CHECK_INVARIANT(bound_seen == bound_,
                       "bound-row count out of sync with bindings");
  for (std::size_t node = 0; node < node_to_row_.size(); ++node) {
    const std::size_t row = node_to_row_[node];
    if (row == kUnbound) continue;
    TACC_CHECK_INVARIANT(row < nodes_.size() &&
                             nodes_[row] == static_cast<NodeId>(node),
                         "node->row index points at a row bound elsewhere: "
                         "node " +
                             std::to_string(node));
  }
}

}  // namespace tacc::topo::oracle
