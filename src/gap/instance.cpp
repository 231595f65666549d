#include "gap/instance.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "util/mutex.hpp"

namespace tacc::gap {

Instance::Instance(topo::DelayMatrix delay, std::vector<double> weights,
                   std::vector<double> demands,
                   std::vector<double> capacities)
    : delay_(std::move(delay)),
      weights_(std::move(weights)),
      demands_(std::move(demands)),
      capacities_(std::move(capacities)) {
  if (weights_.empty()) weights_.assign(delay_.iot_count(), 1.0);
  validate();
  if (demands_.size() != delay_.iot_count()) {
    throw std::invalid_argument("Instance: demands size != device count");
  }
  for (double d : demands_) {
    if (!(d > 0.0)) {
      throw std::invalid_argument("Instance: demands must be positive");
    }
  }
}

Instance::Instance(const Instance& other)
    : delay_(other.delay_),
      weights_(other.weights_),
      demands_(other.demands_),
      demand_matrix_(other.demand_matrix_),
      has_demand_matrix_(other.has_demand_matrix_),
      capacities_(other.capacities_),
      deadlines_(other.deadlines_) {
  const MutexLock lock(&other.rank_mutex_);
  rank_cache_ = other.rank_cache_;
  rank_cache_built_.store(
      other.rank_cache_built_.load(std::memory_order_acquire),
      std::memory_order_release);
}

Instance::Instance(Instance&& other) noexcept
    : delay_(std::move(other.delay_)),
      weights_(std::move(other.weights_)),
      demands_(std::move(other.demands_)),
      demand_matrix_(std::move(other.demand_matrix_)),
      has_demand_matrix_(other.has_demand_matrix_),
      capacities_(std::move(other.capacities_)),
      deadlines_(std::move(other.deadlines_)),
      rank_cache_(std::move(other.rank_cache_)) {
  rank_cache_built_.store(
      other.rank_cache_built_.load(std::memory_order_acquire),
      std::memory_order_release);
  other.rank_cache_built_.store(false, std::memory_order_release);
}

Instance& Instance::operator=(const Instance& other) {
  if (this == &other) return *this;
  Instance copy(other);
  *this = std::move(copy);
  return *this;
}

Instance& Instance::operator=(Instance&& other) noexcept {
  if (this == &other) return *this;
  delay_ = std::move(other.delay_);
  weights_ = std::move(other.weights_);
  demands_ = std::move(other.demands_);
  demand_matrix_ = std::move(other.demand_matrix_);
  has_demand_matrix_ = other.has_demand_matrix_;
  capacities_ = std::move(other.capacities_);
  deadlines_ = std::move(other.deadlines_);
  rank_cache_ = std::move(other.rank_cache_);
  rank_cache_built_.store(
      other.rank_cache_built_.load(std::memory_order_acquire),
      std::memory_order_release);
  other.rank_cache_built_.store(false, std::memory_order_release);
  return *this;
}

Instance Instance::with_demand_matrix(topo::DelayMatrix delay,
                                      std::vector<double> weights,
                                      topo::DelayMatrix demand_matrix,
                                      std::vector<double> capacities) {
  if (demand_matrix.iot_count() != delay.iot_count() ||
      demand_matrix.edge_count() != delay.edge_count()) {
    throw std::invalid_argument("Instance: demand matrix shape mismatch");
  }
  for (std::size_t i = 0; i < demand_matrix.iot_count(); ++i) {
    for (std::size_t j = 0; j < demand_matrix.edge_count(); ++j) {
      if (!(demand_matrix.at(i, j) > 0.0)) {
        throw std::invalid_argument("Instance: demands must be positive");
      }
    }
  }
  // Route through the uniform constructor for shared validation, using the
  // per-device minimum as the placeholder demand vector, then install the
  // matrix.
  std::vector<double> placeholder(delay.iot_count(), 1.0);
  Instance instance(std::move(delay), std::move(weights),
                    std::move(placeholder), std::move(capacities));
  instance.demand_matrix_ = std::move(demand_matrix);
  instance.has_demand_matrix_ = true;
  instance.demands_.clear();
  return instance;
}

void Instance::validate() const {
  if (delay_.iot_count() == 0 || delay_.edge_count() == 0) {
    throw std::invalid_argument("Instance: empty delay matrix");
  }
  if (weights_.size() != delay_.iot_count()) {
    throw std::invalid_argument("Instance: weights size != device count");
  }
  if (capacities_.size() != delay_.edge_count()) {
    throw std::invalid_argument("Instance: capacities size != server count");
  }
  for (double w : weights_) {
    if (!(w > 0.0)) {
      throw std::invalid_argument("Instance: weights must be positive");
    }
  }
  for (double c : capacities_) {
    if (!(c > 0.0)) {
      throw std::invalid_argument("Instance: capacities must be positive");
    }
  }
}

double Instance::total_demand_lower_bound() const noexcept {
  double total = 0.0;
  for (std::size_t i = 0; i < device_count(); ++i) {
    double lo = demand(i, 0);
    for (std::size_t j = 1; j < server_count(); ++j) {
      lo = std::min(lo, demand(i, j));
    }
    total += lo;
  }
  return total;
}

double Instance::total_capacity() const noexcept {
  return std::accumulate(capacities_.begin(), capacities_.end(), 0.0);
}

double Instance::load_factor() const noexcept {
  const double capacity = total_capacity();
  return capacity > 0.0 ? total_demand_lower_bound() / capacity : 0.0;
}

std::span<const std::uint32_t> Instance::rank_table() const {
  if (!rank_cache_built_.load(std::memory_order_acquire)) {
    const MutexLock lock(&rank_mutex_);
    if (!rank_cache_built_.load(std::memory_order_relaxed)) {
      build_rank_cache();
    }
  }
  return rank_cache_;
}

std::span<const std::uint32_t> Instance::servers_by_delay(
    DeviceIndex i) const {
  const auto table = rank_table();
  if (i >= device_count()) {
    throw std::out_of_range("Instance::servers_by_delay: bad device index");
  }
  const std::size_t m = server_count();
  return table.subspan(i * m, m);
}

void Instance::set_deadlines(std::vector<double> deadlines_ms) {
  if (deadlines_ms.empty()) {
    deadlines_.clear();
    return;
  }
  if (deadlines_ms.size() != device_count()) {
    throw std::invalid_argument("Instance: deadlines size != device count");
  }
  for (double d : deadlines_ms) {
    if (!(d > 0.0)) {
      throw std::invalid_argument("Instance: deadlines must be positive");
    }
  }
  deadlines_ = std::move(deadlines_ms);
}

double Instance::deadline_ms(DeviceIndex i) const {
  if (i >= device_count()) {
    throw std::out_of_range("Instance::deadline_ms: bad device index");
  }
  return deadlines_.empty() ? std::numeric_limits<double>::infinity()
                            : deadlines_[i];
}

Instance Instance::with_deadline_penalty(double penalty_factor) const {
  if (!has_deadlines()) {
    throw std::logic_error(
        "Instance::with_deadline_penalty: no deadlines attached");
  }
  if (!(penalty_factor > 1.0)) {
    throw std::invalid_argument(
        "Instance::with_deadline_penalty: factor must exceed 1");
  }
  topo::DelayMatrix inflated = delay_;
  for (DeviceIndex i = 0; i < device_count(); ++i) {
    for (ServerIndex j = 0; j < server_count(); ++j) {
      if (delay_.at(i, j) > deadlines_[i]) {
        inflated.set(i, j, delay_.at(i, j) * penalty_factor);
      }
    }
  }
  Instance penalized =
      has_demand_matrix_
          ? Instance::with_demand_matrix(std::move(inflated), weights_,
                                         demand_matrix_, capacities_)
          : Instance(std::move(inflated), weights_, demands_, capacities_);
  penalized.deadlines_ = deadlines_;
  return penalized;
}

void Instance::build_rank_cache() const {
  const std::size_t n = device_count();
  const std::size_t m = server_count();
  rank_cache_.resize(n * m);
  for (std::size_t i = 0; i < n; ++i) {
    auto* row = rank_cache_.data() + i * m;
    std::iota(row, row + m, 0u);
    std::sort(row, row + m, [&](std::uint32_t a, std::uint32_t b) {
      const double da = delay_.at(i, a);
      const double db = delay_.at(i, b);
      return da != db ? da < db : a < b;
    });
  }
  rank_cache_built_.store(true, std::memory_order_release);
}

}  // namespace tacc::gap
