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
                   std::size_t hot_rows, Fill fill, Resolve resolve)
    : fill_(std::move(fill)),
      resolve_(std::move(resolve)),
      dense_(encoding == RowEncoding::kDense),
      width_(width),
      lru_(width, hot_rows, hot_rows * kColdPerHot) {}

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

const std::vector<double>& RowStore::materialize_row(std::size_t row) {
  TACC_REQUIRE(row < nodes_.size() && nodes_[row] != kInvalidNode,
               "reading an unbound oracle row");
  row_scratch_.resize(width_);
  for (std::size_t j = 0; j < width_; ++j) row_scratch_[j] = value(row, j);
  return row_scratch_;
}

std::uint32_t RowStore::acquire_key(NodeId node) {
  if (node < key_of_node_.size() && key_of_node_[node] != kNoKey) {
    const std::uint32_t key = key_of_node_[node];
    ++keys_[key].refs;
    return key;
  }
  std::uint32_t key = 0;
  if (!free_keys_.empty()) {
    key = free_keys_.back();
    free_keys_.pop_back();
  } else {
    key = static_cast<std::uint32_t>(keys_.size());
    keys_.emplace_back();
    key_values_.resize(keys_.size() * width_);
  }
  if (node >= key_of_node_.size()) key_of_node_.resize(node + 1, kNoKey);
  key_of_node_[node] = key;
  // pass 0 is never current, so the caller's fill_key() always fills it.
  keys_[key] = Key{node, 1, 0, 0};
  return key;
}

void RowStore::release_key(std::uint32_t key) {
  if (--keys_[key].refs != 0) return;
  key_of_node_[keys_[key].node] = kNoKey;
  keys_[key].node = kInvalidNode;
  free_keys_.push_back(key);
}

void RowStore::fill_key(std::uint32_t key) {
  Key& entry = keys_[key];
  if (entry.pass == pass_) return;
  entry.epoch = fill_(kUnbound, entry.node,
                      std::span<double>(key_values_).subspan(key * width_,
                                                             width_));
  entry.pass = pass_;
}

void RowStore::resolve_row(std::size_t row) {
  const NodeId node = nodes_[row];
  const incr::ReadThrough through =
      resolve_ ? resolve_(node) : incr::ReadThrough{node, 0.0};
  row_latency_[row] = through.latency_ms;
  const std::uint32_t old = row_key_[row];
  if (old != kNoKey && keys_[old].node == through.node) return;
  // Acquire before releasing, so a key row shared with the old key is never
  // freed and refilled in between.
  row_key_[row] = acquire_key(through.node);
  row_offset_[row] = std::size_t{row_key_[row]} * width_;
  if (old != kNoKey) release_key(old);
}

void RowStore::stamp_row(std::size_t row) {
  const std::uint32_t key = row_key_[row];
  fill_key(key);
  epochs_[row] = keys_[key].epoch;
}

void RowStore::reload_row(std::size_t row) {
  resolve_row(row);
  stamp_row(row);
}

void RowStore::bind(std::size_t row, NodeId node) {
  if (row >= nodes_.size()) {
    nodes_.resize(row + 1, kInvalidNode);
    epochs_.resize(row + 1, 0);
    if (dense_) {
      row_key_.resize(row + 1, kNoKey);
      row_offset_.resize(row + 1, 0);
      row_latency_.resize(row + 1, 0.0);
    }
  }
  if (node >= node_to_row_.size()) node_to_row_.resize(node + 1, kUnbound);
  if (nodes_[row] != kInvalidNode) {
    node_to_row_[nodes_[row]] = kUnbound;
  } else {
    ++bound_;
  }
  nodes_[row] = node;
  node_to_row_[node] = row;
  if (!dense_) {
    lru_.erase(row);
    return;
  }
  // A fresh pass, so the key row is refilled even if this refresh pass's
  // fill already covered it: binds serve current values.
  ++pass_;
  reload_row(row);
}

bool RowStore::unbind(std::size_t row) {
  if (row >= nodes_.size() || nodes_[row] == kInvalidNode) return false;
  node_to_row_[nodes_[row]] = kUnbound;
  nodes_[row] = kInvalidNode;
  --bound_;
  if (dense_) {
    release_key(row_key_[row]);
    row_key_[row] = kNoKey;
  } else {
    lru_.erase(row);
  }
  return true;
}

std::size_t RowStore::refresh(std::span<const NodeId> nodes,
                              std::span<const NodeId> reclassified) {
  refreshed_rows_.clear();
  if (dense_) {
    ++pass_;
    for (const NodeId node : reclassified) {
      const std::size_t row = row_of(node);
      if (row == kUnbound) continue;
      resolve_row(row);
      // A key row created here is filled now; an existing one is current,
      // or its node is in `nodes` and it is rewritten below.
      if (keys_[row_key_[row]].pass == 0) fill_key(row_key_[row]);
    }
    for (const NodeId node : nodes) {
      if (node < key_of_node_.size() && key_of_node_[node] != kNoKey) {
        fill_key(key_of_node_[node]);
      }
      const std::size_t row = row_of(node);
      if (row == kUnbound) continue;
      // Its key is current: any change of key was reported in
      // `reclassified` and resolved above.
      stamp_row(row);
      refreshed_rows_.push_back(row);
    }
  } else {
    for (const NodeId node : nodes) {
      const std::size_t row = row_of(node);
      if (row == kUnbound) continue;
      lru_.erase(row);
      refreshed_rows_.push_back(row);
    }
  }
  const std::size_t refreshed = refreshed_rows_.size();
  rows_refreshed_ += refreshed;
  rows_saved_ += bound_ > refreshed ? bound_ - refreshed : 0;
  return refreshed;
}

void RowStore::invalidate_all() {
  if (!dense_) {
    lru_.clear();
    return;
  }
  ++pass_;
  for (std::size_t row = 0; row < nodes_.size(); ++row) {
    if (nodes_[row] != kInvalidNode) reload_row(row);
  }
}

void RowStore::refresh_all() {
  invalidate_all();
  rows_refreshed_ += bound_;
  refreshed_rows_.clear();
  for (std::size_t row = 0; row < nodes_.size(); ++row) {
    if (nodes_[row] != kInvalidNode) refreshed_rows_.push_back(row);
  }
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
    const double* key_row = &key_values_[row_offset_[i]];
    for (std::size_t j = 0; j < width_; ++j) {
      mix(std::bit_cast<std::uint64_t>(key_row[j] + row_latency_[i]));
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
  return lru_.resident_bytes() +
         (fill_scratch_.capacity() + row_scratch_.capacity() +
          row_latency_.capacity() + key_values_.capacity()) *
             sizeof(double) +
         nodes_.capacity() * sizeof(NodeId) +
         row_offset_.capacity() * sizeof(std::size_t) +
         epochs_.capacity() * sizeof(std::uint64_t) +
         (node_to_row_.capacity() + refreshed_rows_.capacity()) *
             sizeof(std::size_t) +
         (row_key_.capacity() + key_of_node_.capacity() +
          free_keys_.capacity()) *
             sizeof(std::uint32_t) +
         keys_.capacity() * sizeof(Key);
}

void RowStore::check_invariants(std::uint64_t epoch) const {
  const std::size_t dense_rows = dense_ ? nodes_.size() : 0;
  TACC_CHECK_INVARIANT(epochs_.size() == nodes_.size() &&
                           row_key_.size() == dense_rows &&
                           row_offset_.size() == dense_rows &&
                           row_latency_.size() == dense_rows,
                       "row/node/epoch arrays must stay parallel");
  TACC_CHECK_INVARIANT(key_values_.size() == keys_.size() * width_,
                       "every key needs one full-width row");
  lru_.check_invariants();

  std::size_t bound_seen = 0;
  std::vector<std::uint32_t> refs(keys_.size(), 0);
  for (std::size_t row = 0; row < nodes_.size(); ++row) {
    const NodeId node = nodes_[row];
    const std::string where = "row " + std::to_string(row);
    TACC_CHECK_INVARIANT(epochs_[row] <= epoch,
                         "row stamped with an epoch from the future: " +
                             where);
    if (node == kInvalidNode) {
      TACC_CHECK_INVARIANT(!lru_.contains(row),
                           "unbound row still resident in the store: " +
                               where);
      TACC_CHECK_INVARIANT(!dense_ || row_key_[row] == kNoKey,
                           "unbound row still holds a key: " + where);
      continue;
    }
    ++bound_seen;
    TACC_CHECK_INVARIANT(node < node_to_row_.size() &&
                             node_to_row_[node] == row,
                         "bound row missing from the node->row index: " +
                             where);
    if (!dense_) continue;
    const std::uint32_t key = row_key_[row];
    TACC_CHECK_INVARIANT(key < keys_.size() && keys_[key].refs != 0,
                         "bound row reads through no live key: " + where);
    TACC_CHECK_INVARIANT(row_offset_[row] == std::size_t{key} * width_,
                         "bound row's offset misses its key row: " + where);
    ++refs[key];
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

  std::size_t free_seen = 0;
  for (std::size_t key = 0; key < keys_.size(); ++key) {
    const Key& entry = keys_[key];
    const std::string where = "key " + std::to_string(key);
    TACC_CHECK_INVARIANT(entry.refs == refs[key],
                         "key refcount differs from the rows reading "
                         "through it: " +
                             where);
    if (entry.refs == 0) {
      TACC_CHECK_INVARIANT(entry.node == kInvalidNode,
                           "freed key still names a node: " + where);
      ++free_seen;
      continue;
    }
    TACC_CHECK_INVARIANT(entry.node < key_of_node_.size() &&
                             key_of_node_[entry.node] == key,
                         "live key missing from the node->key index: " +
                             where);
    TACC_CHECK_INVARIANT(entry.epoch <= epoch,
                         "key row stamped with an epoch from the future: " +
                             where);
  }
  TACC_CHECK_INVARIANT(free_seen == free_keys_.size(),
                       "free-key list out of sync with the freed keys");
  for (const std::uint32_t key : free_keys_) {
    TACC_CHECK_INVARIANT(key < keys_.size() && keys_[key].refs == 0,
                         "free-key list names a live key");
  }
  for (std::size_t node = 0; node < key_of_node_.size(); ++node) {
    const std::uint32_t key = key_of_node_[node];
    if (key == kNoKey) continue;
    TACC_CHECK_INVARIANT(key < keys_.size() &&
                             keys_[key].node == static_cast<NodeId>(node),
                         "node->key index points at another key: node " +
                             std::to_string(node));
  }
}

}  // namespace tacc::topo::oracle
