// The Topology-Aware Cluster Configuration (TACC) problem instance.
//
// TACC is a Generalized Assignment Problem: assign each IoT device i to an
// edge server j minimizing Σ_i cost(i, x(i)) subject to per-server capacity,
// where cost(i,j) = traffic_weight(i) · delay_ms(i,j) and the delay matrix is
// derived from the network topology (see topology/network.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "topology/network.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace tacc::gap {

using DeviceIndex = std::size_t;
using ServerIndex = std::size_t;

/// demand(i, ·) of one device as a strided view: element j is
/// data[j * stride]. The stride is 0 under uniform demand (one value per
/// device) and 1 under a demand matrix, so hot loops read it branch-free.
struct DemandRow {
  const double* data;
  std::size_t stride;
  [[nodiscard]] double operator[](ServerIndex j) const noexcept {
    return data[j * stride];
  }
};

class Instance {
 public:
  /// Builds an instance with uniform per-device demand (w_ij = w_i).
  /// `delay` is n×m; `weights` and `demands` have size n, `capacities` m.
  /// Pass empty `weights` for all-ones. Throws on shape mismatch or
  /// non-positive capacity/demand.
  Instance(topo::DelayMatrix delay, std::vector<double> weights,
           std::vector<double> demands, std::vector<double> capacities);

  /// General-GAP variant: per-(device, server) demand matrix (n×m).
  /// A named factory rather than an overload so braced-list call sites of
  /// the uniform constructor stay unambiguous.
  [[nodiscard]] static Instance with_demand_matrix(
      topo::DelayMatrix delay, std::vector<double> weights,
      topo::DelayMatrix demand_matrix, std::vector<double> capacities);

  // Copies and moves are explicit because the lazily built rank cache is
  // guarded by a (non-copyable) mutex; the cache contents transfer, the
  // guard does not.
  Instance(const Instance& other);
  Instance(Instance&& other) noexcept;
  Instance& operator=(const Instance& other);
  Instance& operator=(Instance&& other) noexcept;
  ~Instance() = default;

  [[nodiscard]] std::size_t device_count() const noexcept {
    return delay_.iot_count();
  }
  [[nodiscard]] std::size_t server_count() const noexcept {
    return delay_.edge_count();
  }

  /// Shortest-path delay in ms (the topology-aware metric).
  [[nodiscard]] double delay_ms(DeviceIndex i, ServerIndex j) const {
    return delay_.at(i, j);
  }
  /// Traffic weight w'_i (requests/sec or normalized rate).
  [[nodiscard]] double traffic_weight(DeviceIndex i) const {
    return weights_.at(i);
  }
  /// Assignment cost: weight × delay.
  [[nodiscard]] double cost(DeviceIndex i, ServerIndex j) const {
    return weights_[i] * delay_.at(i, j);
  }
  /// Capacity units device i consumes if assigned to server j.
  [[nodiscard]] double demand(DeviceIndex i, ServerIndex j) const {
    return has_demand_matrix_ ? demand_matrix_.at(i, j) : demands_.at(i);
  }
  /// demand(i, j) for every j, read without per-element checks.
  [[nodiscard]] DemandRow demand_row(DeviceIndex i) const {
    return has_demand_matrix_ ? DemandRow{demand_matrix_.row(i).data(), 1}
                              : DemandRow{&demands_.at(i), 0};
  }
  [[nodiscard]] std::span<const double> traffic_weights() const noexcept {
    return weights_;
  }
  [[nodiscard]] bool uniform_demand() const noexcept {
    return !has_demand_matrix_;
  }
  [[nodiscard]] double capacity(ServerIndex j) const {
    return capacities_.at(j);
  }
  [[nodiscard]] std::span<const double> capacities() const noexcept {
    return capacities_;
  }

  [[nodiscard]] double total_demand_lower_bound() const noexcept;
  [[nodiscard]] double total_capacity() const noexcept;
  /// Σ min_j demand / Σ capacity; >1 means certainly infeasible.
  [[nodiscard]] double load_factor() const noexcept;

  /// Servers sorted by ascending delay for device i (the "K nearest
  /// candidates" used by RL and greedy solvers). Cached on first use;
  /// safe to call concurrently (double-checked build under a mutex), as
  /// portfolio solves share one instance across worker threads.
  [[nodiscard]] std::span<const std::uint32_t> servers_by_delay(
      DeviceIndex i) const;
  /// The whole rank cache, n rows of m: servers_by_delay(i) is the row at
  /// [i·m, (i+1)·m). Built on first use like servers_by_delay.
  [[nodiscard]] std::span<const std::uint32_t> rank_table() const;

  [[nodiscard]] const topo::DelayMatrix& delay_matrix() const noexcept {
    return delay_;
  }

  // ---- Deadlines (optional metadata) ---------------------------------------
  // Real-time devices carry an end-to-end deadline; an assignment *meets
  // deadlines* when every device's delay is within its bound. Deadlines do
  // not change capacity feasibility — they are evaluated separately and can
  // be folded into costs via with_deadline_penalty().

  /// Attaches per-device deadlines (size n, all positive) or clears them
  /// with an empty vector. Throws on shape/positivity violations.
  void set_deadlines(std::vector<double> deadlines_ms);
  [[nodiscard]] bool has_deadlines() const noexcept {
    return !deadlines_.empty();
  }
  /// +infinity when no deadlines are attached.
  [[nodiscard]] double deadline_ms(DeviceIndex i) const;

  /// A solving-time transform: a copy of this instance whose delay entries
  /// that exceed the device's deadline are inflated by `penalty_factor`,
  /// steering any cost-minimizing solver away from deadline-violating
  /// servers. Evaluate the resulting assignment against the ORIGINAL
  /// instance for true delays. Requires deadlines to be attached.
  [[nodiscard]] Instance with_deadline_penalty(double penalty_factor) const;

 private:
  void validate() const;
  void build_rank_cache() const TACC_REQUIRES(rank_mutex_);

  topo::DelayMatrix delay_;
  std::vector<double> weights_;
  std::vector<double> demands_;        // per-device (uniform-demand variant)
  topo::DelayMatrix demand_matrix_;    // general variant
  bool has_demand_matrix_ = false;
  std::vector<double> capacities_;
  std::vector<double> deadlines_;  // empty = no deadlines attached

  // Lazily built: n×m server indices, row i sorted by delay_ms(i, ·).
  // rank_mutex_ guards the one-time build; the acquire/release flag makes
  // the fast path lock-free once built.
  //
  // Deliberately NOT TACC_GUARDED_BY(rank_mutex_): the double-checked
  // publication makes post-build reads lock-free by design, which the
  // thread-safety analysis cannot express. The write side stays disciplined
  // through build_rank_cache()'s TACC_REQUIRES(rank_mutex_); readers are
  // safe because rank_cache_ is immutable once rank_cache_built_ is
  // observed true with acquire ordering.
  mutable std::vector<std::uint32_t> rank_cache_;
  mutable std::atomic<bool> rank_cache_built_{false};
  mutable Mutex rank_mutex_;
};

}  // namespace tacc::gap
