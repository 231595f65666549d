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
  TACC_REQUIRE(row_bound(row), "reading an unbound oracle row");
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

void DelayOracle::resolve_row(std::size_t row) {
  const HostTable& hosts = engine_->network().hosts;
  if (!hosts.attached(row)) {
    throw std::invalid_argument(
        "DelayOracle: a bound row needs an attached host slot");
  }
  const NodeId anchor = hosts.anchor[row];
  row_latency_[row] = hosts.access[row].latency_ms;
  const std::uint32_t old = row_key_[row];
  if (old != kNoKey && keys_[old].node == anchor) return;
  // Acquire before releasing, so a key row shared with the old key is never
  // freed and refilled in between.
  row_key_[row] = acquire_key(anchor);
  row_offset_[row] = std::size_t{row_key_[row]} * width_;
  if (old != kNoKey) release_key(old);
}

void DelayOracle::move_key(std::uint32_t key) {
  fill_key(key);
  keys_[key].moved = pass_;
  moved_keys_.push_back(key);
}

void DelayOracle::bind_row(std::size_t row) {
  if (row >= row_key_.size()) {
    epochs_.resize(row + 1, 0);
    row_key_.resize(row + 1, kNoKey);
    row_offset_.resize(row + 1, 0);
    row_latency_.resize(row + 1, 0.0);
  }
  const bool was_bound = row_bound(row);
  resolve_row(row);
  if (!was_bound) ++bound_;
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
  if (!row_bound(row)) return;
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
  for (std::size_t row = 0; row < row_key_.size(); ++row) {
    if (!row_bound(row)) continue;
    resolve_row(row);
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
  // A row is bound to its own host slot, which takes the device id after
  // the graph's routers and servers.
  const std::size_t first_device = engine_->network().graph.node_count();
  for (std::size_t i = 0; i < row_key_.size(); ++i) {
    if (!row_bound(i)) continue;
    mix(static_cast<std::uint64_t>(i));
    mix(static_cast<std::uint64_t>(first_device + i));
    for (std::size_t j = 0; j < width_; ++j) {
      mix(std::bit_cast<std::uint64_t>(value(i, j)));
    }
  }
  return digest;
}

DelayMatrix DelayOracle::materialize() const {
  DelayMatrix matrix(row_key_.size(), width_, kUnreachable);
  for (std::size_t i = 0; i < row_key_.size(); ++i) {
    if (!row_bound(i)) continue;
    for (std::size_t j = 0; j < width_; ++j) matrix.set(i, j, value(i, j));
  }
  return matrix;
}

std::size_t DelayOracle::resident_bytes() const noexcept {
  return (row_scratch_.capacity() + fill_scratch_.capacity() +
          row_latency_.capacity() + key_values_.capacity()) *
             sizeof(double) +
         drain_scratch_.capacity() * sizeof(NodeId) +
         row_offset_.capacity() * sizeof(std::size_t) +
         epochs_.capacity() * sizeof(std::uint64_t) +
         (row_key_.capacity() + key_of_node_.capacity() +
          free_keys_.capacity() + moved_keys_.capacity()) *
             sizeof(std::uint32_t) +
         keys_.capacity() * sizeof(Key);
}

void DelayOracle::check_invariants() const {
  const std::uint64_t epoch = engine_->epoch();
  TACC_CHECK_INVARIANT(epochs_.size() == row_key_.size() &&
                           row_offset_.size() == row_key_.size() &&
                           row_latency_.size() == row_key_.size(),
                       "row key/epoch/latency arrays must stay parallel");
  TACC_CHECK_INVARIANT(key_values_.size() == keys_.size() * width_,
                       "every key needs one full-width row");

  std::size_t bound_seen = 0;
  std::vector<std::uint32_t> refs(keys_.size(), 0);
  for (std::size_t row = 0; row < row_key_.size(); ++row) {
    const std::string where = "row " + std::to_string(row);
    TACC_CHECK_INVARIANT(epochs_[row] <= epoch,
                         "row stamped with an epoch from the future: " +
                             where);
    if (!row_bound(row)) continue;
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

  // Key rows that drifted from the engine's trees are only acceptable
  // while the key is queued for the next refresh().
  std::vector<double> want(width_);
  for (std::size_t key = 0; key < keys_.size(); ++key) {
    const NodeId router = keys_[key].node;
    if (keys_[key].refs == 0 || engine_->is_dirty(router)) continue;
    engine_->delay_row(router, want);
    for (std::size_t j = 0; j < width_; ++j) {
      TACC_CHECK_INVARIANT(
          std::bit_cast<std::uint64_t>(key_value(
              static_cast<std::uint32_t>(key), j)) ==
              std::bit_cast<std::uint64_t>(want[j]),
          "stale key row with a clean dirty set: router " +
              std::to_string(router) + ", server " + std::to_string(j));
    }
  }
  // A device that attached anew must have been rebound.
  const HostTable& hosts = engine_->network().hosts;
  for (std::size_t row = 0; row < row_key_.size(); ++row) {
    if (!row_bound(row)) continue;
    TACC_CHECK_INVARIANT(
        hosts.attached(row) && row_key(row) == hosts.anchor[row] &&
            std::bit_cast<std::uint64_t>(row_latency_[row]) ==
                std::bit_cast<std::uint64_t>(hosts.access[row].latency_ms),
        "row not rebound after its device attached anew: row " +
            std::to_string(row));
  }
}

}  // namespace tacc::topo::oracle
