#include "topology/oracle/oracle.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>

#include "topology/shortest_paths.hpp"
#include "util/rng.hpp"

namespace tacc::topo::oracle {

DelayOracle::DelayOracle(incr::IncrementalDelayEngine& engine)
    : engine_(&engine),
      width_(engine.server_count()),
      key_of_node_(engine.network().router_count(), kNoKey) {}

const std::vector<double>& DelayOracle::row(std::size_t row) const {
  stats_.queries += width_;
  TACC_REQUIRE(row < nodes_.size() && nodes_[row] != kInvalidNode,
               "reading an unbound oracle row");
  row_scratch_.resize(width_);
  for (std::size_t j = 0; j < width_; ++j) row_scratch_[j] = value(row, j);
  return row_scratch_;
}

std::uint32_t DelayOracle::acquire_key(NodeId router) {
  if (key_of_node_[router] != kNoKey) {
    const std::uint32_t key = key_of_node_[router];
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
  key_of_node_[router] = key;
  // pass 0 is never current, so the caller's fill_key() always fills it.
  keys_[key] = Key{router, 1, 0, 0, 0};
  return key;
}

void DelayOracle::release_key(std::uint32_t key) {
  if (--keys_[key].refs != 0) return;
  key_of_node_[keys_[key].node] = kNoKey;
  keys_[key].node = kInvalidNode;
  free_keys_.push_back(key);
}

void DelayOracle::fill_key(std::uint32_t key) {
  Key& entry = keys_[key];
  if (entry.pass == pass_) return;
  engine_->delay_row(
      entry.node, std::span<double>(key_values_).subspan(key * width_, width_));
  entry.epoch = engine_->epoch();
  entry.pass = pass_;
}

void DelayOracle::resolve_row(std::size_t row, NodeId node) {
  const incr::ReadThrough through = engine_->read_through(node);
  if (through.node >= key_of_node_.size()) {
    throw std::invalid_argument(
        "DelayOracle: a bound row must read through a router");
  }
  row_latency_[row] = through.latency_ms;
  const std::uint32_t old = row_key_[row];
  if (old != kNoKey && keys_[old].node == through.node) return;
  // Acquire before releasing, so a key row shared with the old key is never
  // freed and refilled in between.
  row_key_[row] = acquire_key(through.node);
  row_offset_[row] = std::size_t{row_key_[row]} * width_;
  if (old != kNoKey) release_key(old);
}

void DelayOracle::move_key(std::uint32_t key) {
  fill_key(key);
  keys_[key].moved = pass_;
  moved_keys_.push_back(key);
}

void DelayOracle::bind_row(std::size_t row, NodeId node) {
  if (row >= nodes_.size()) {
    nodes_.resize(row + 1, kInvalidNode);
    epochs_.resize(row + 1, 0);
    row_key_.resize(row + 1, kNoKey);
    row_offset_.resize(row + 1, 0);
    row_latency_.resize(row + 1, 0.0);
  }
  resolve_row(row, node);
  if (nodes_[row] == kInvalidNode) ++bound_;
  nodes_[row] = node;
  Key& key = keys_[row_key_[row]];
  if (key.pass == 0) {  // a fresh key: its first fill
    fill_key(row_key_[row]);
    epochs_[row] = key.epoch;
    return;
  }
  // A shared key row is refilled so the row serves current values, but it
  // takes the fill epoch only if a value moved: the rows already reading it
  // served those values all along.
  fill_scratch_.resize(width_);
  engine_->delay_row(key.node, fill_scratch_);
  epochs_[row] = engine_->epoch();
  double* values = &key_values_[row_offset_[row]];
  // Bitwise: memcmp tells -0.0 from 0.0 as the fingerprint does.
  if (std::memcmp(values, fill_scratch_.data(), width_ * sizeof(double)) !=
      0) {
    std::copy(fill_scratch_.begin(), fill_scratch_.end(), values);
    key.epoch = epochs_[row];
  }
}

void DelayOracle::unbind_row(std::size_t row) {
  if (row >= nodes_.size() || nodes_[row] == kInvalidNode) return;
  nodes_[row] = kInvalidNode;
  --bound_;
  release_key(row_key_[row]);
  row_key_[row] = kNoKey;
}

void DelayOracle::drain() {
  drain_scratch_.clear();
  engine_->drain_dirty(drain_scratch_);
}

std::size_t DelayOracle::refresh() {
  drain();
  moved_keys_.clear();
  ++pass_;
  std::size_t refreshed = 0;
  for (const NodeId router : drain_scratch_) {
    const std::uint32_t key = key_of_node_[router];
    if (key == kNoKey) continue;
    move_key(key);
    refreshed += keys_[key].refs;
  }
  rows_refreshed_ += refreshed;
  rows_saved_ += bound_ > refreshed ? bound_ - refreshed : 0;
  return refreshed;
}

void DelayOracle::refresh_all() {
  drain();
  ++pass_;
  moved_keys_.clear();
  for (std::size_t row = 0; row < nodes_.size(); ++row) {
    if (nodes_[row] == kInvalidNode) continue;
    resolve_row(row, nodes_[row]);
    if (keys_[row_key_[row]].moved != pass_) move_key(row_key_[row]);
  }
  rows_refreshed_ += bound_;
}

std::uint64_t DelayOracle::fingerprint() const {
  // Same splitmix64 chaining as Scenario::fingerprint(): order-sensitive,
  // platform-stable. The epoch ties the digest to the mutation history even
  // when a fail/restore pair returns the values to their start state.
  std::uint64_t state = 0x7ACC5EEDULL;
  std::uint64_t digest = 0;
  const auto mix = [&state, &digest](std::uint64_t value) {
    state ^= value;
    digest = util::splitmix64(state);
  };
  mix(engine_->epoch());
  mix(static_cast<std::uint64_t>(bound_));
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i] == kInvalidNode) continue;
    mix(static_cast<std::uint64_t>(i));
    mix(static_cast<std::uint64_t>(nodes_[i]));
    for (std::size_t j = 0; j < width_; ++j) {
      mix(std::bit_cast<std::uint64_t>(value(i, j)));
    }
  }
  return digest;
}

DelayMatrix DelayOracle::materialize() const {
  DelayMatrix matrix(nodes_.size(), width_, kUnreachable);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i] == kInvalidNode) continue;
    for (std::size_t j = 0; j < width_; ++j) matrix.set(i, j, value(i, j));
  }
  return matrix;
}

std::size_t DelayOracle::resident_bytes() const noexcept {
  return (row_scratch_.capacity() + fill_scratch_.capacity() +
          row_latency_.capacity() + key_values_.capacity()) *
             sizeof(double) +
         (nodes_.capacity() + drain_scratch_.capacity()) * sizeof(NodeId) +
         row_offset_.capacity() * sizeof(std::size_t) +
         epochs_.capacity() * sizeof(std::uint64_t) +
         (row_key_.capacity() + key_of_node_.capacity() +
          free_keys_.capacity() + moved_keys_.capacity()) *
             sizeof(std::uint32_t) +
         keys_.capacity() * sizeof(Key);
}

void DelayOracle::check_invariants() const {
  const std::uint64_t epoch = engine_->epoch();
  TACC_CHECK_INVARIANT(epochs_.size() == nodes_.size() &&
                           row_key_.size() == nodes_.size() &&
                           row_offset_.size() == nodes_.size() &&
                           row_latency_.size() == nodes_.size(),
                       "row/node/epoch arrays must stay parallel");
  TACC_CHECK_INVARIANT(key_values_.size() == keys_.size() * width_,
                       "every key needs one full-width row");

  std::size_t bound_seen = 0;
  std::vector<std::uint32_t> refs(keys_.size(), 0);
  for (std::size_t row = 0; row < nodes_.size(); ++row) {
    const NodeId node = nodes_[row];
    const std::string where = "row " + std::to_string(row);
    TACC_CHECK_INVARIANT(epochs_[row] <= epoch,
                         "row stamped with an epoch from the future: " +
                             where);
    if (node == kInvalidNode) {
      TACC_CHECK_INVARIANT(row_key_[row] == kNoKey,
                           "unbound row still holds a key: " + where);
      continue;
    }
    ++bound_seen;
    const std::uint32_t key = row_key_[row];
    TACC_CHECK_INVARIANT(key < keys_.size() && keys_[key].refs != 0,
                         "bound row reads through no live key: " + where);
    TACC_CHECK_INVARIANT(row_offset_[row] == std::size_t{key} * width_,
                         "bound row's offset misses its key row: " + where);
    ++refs[key];
  }
  TACC_CHECK_INVARIANT(bound_seen == bound_,
                       "bound-row count out of sync with bindings");

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

  for (std::size_t row = 0; row < nodes_.size(); ++row) {
    const NodeId node = nodes_[row];
    // Values that drifted from the engine's trees are only acceptable while
    // the key is queued for the next refresh(); a node whose own links
    // changed must have been rebound.
    if (node == kInvalidNode || engine_->is_dirty(row_key(row))) continue;
    const incr::ReadThrough through = engine_->read_through(node);
    TACC_CHECK_INVARIANT(
        row_key(row) == through.node &&
            std::bit_cast<std::uint64_t>(row_latency_[row]) ==
                std::bit_cast<std::uint64_t>(through.latency_ms),
        "row not rebound after its node's links changed: row " +
            std::to_string(row));
    for (std::size_t j = 0; j < width_; ++j) {
      TACC_CHECK_INVARIANT(
          std::bit_cast<std::uint64_t>(value(row, j)) ==
              std::bit_cast<std::uint64_t>(engine_->delay_ms(j, node)),
          "stale cached delay with a clean dirty set: row " +
              std::to_string(row) + ", server " + std::to_string(j));
    }
  }
}

}  // namespace tacc::topo::oracle
