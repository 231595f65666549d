#include "rl/environment.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace tacc::rl {

namespace {
constexpr double kEps = 1e-9;

/// Index of `value` among sorted `thresholds` (bucket 0..thresholds.size()).
[[nodiscard]] std::uint8_t bucket_of(double value,
                                     const std::vector<double>& thresholds) {
  std::uint8_t b = 0;
  for (double t : thresholds) {
    if (value <= t) break;
    ++b;
  }
  return b;
}

/// Quantile thresholds splitting `values` into `buckets` equal-count bins.
[[nodiscard]] std::vector<double> quantile_thresholds(
    std::vector<double> values, std::size_t buckets) {
  std::vector<double> thresholds;
  if (buckets <= 1 || values.empty()) return thresholds;
  std::sort(values.begin(), values.end());
  for (std::size_t b = 1; b < buckets; ++b) {
    const std::size_t idx =
        std::min(values.size() - 1, b * values.size() / buckets);
    thresholds.push_back(values[idx]);
  }
  return thresholds;
}

}  // namespace

std::uint8_t residual_bucket(double load, double capacity,
                             std::size_t buckets) {
  const double residual_fraction = std::clamp(1.0 - load / capacity, 0.0, 1.0);
  const auto b = static_cast<std::size_t>(residual_fraction *
                                          static_cast<double>(buckets));
  return static_cast<std::uint8_t>(std::min(b, buckets - 1));
}

std::vector<double> residual_bucket_thresholds(double capacity,
                                               std::size_t buckets) {
  if (capacity == std::numeric_limits<double>::infinity()) {
    // Every finite load keeps a full residual; inf / inf is NaN, so the
    // bisection's top probe is not defined here.
    return std::vector<double>(buckets - 1, capacity);
  }
  std::vector<double> thresholds;
  for (std::size_t k = 1; k < buckets; ++k) {
    // Bucket buckets - 1 >= k at load 0 and bucket 0 < k at the capacity;
    // non-negative doubles order like their bit patterns.
    std::uint64_t lo = std::bit_cast<std::uint64_t>(0.0);
    std::uint64_t hi = std::bit_cast<std::uint64_t>(capacity);
    while (hi - lo > 1) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (residual_bucket(std::bit_cast<double>(mid), capacity, buckets) >=
          k) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    thresholds.push_back(std::bit_cast<double>(lo));
  }
  return thresholds;
}

AssignmentEnv::AssignmentEnv(const gap::Instance& instance, EnvOptions options,
                             std::uint64_t seed)
    : instance_(&instance),
      options_(options),
      k_(std::min(options.candidate_count, instance.server_count())),
      rng_(seed) {
  if (k_ == 0) {
    throw std::invalid_argument("AssignmentEnv: candidate_count must be > 0");
  }
  if (k_ > kMaxCandidates) {
    throw std::invalid_argument(
        "AssignmentEnv: more than 64 candidates (the feasibility mask is "
        "64 bits)");
  }
  options_.load_buckets = std::max<std::size_t>(1, options_.load_buckets);
  options_.demand_buckets = std::max<std::size_t>(1, options_.demand_buckets);
  options_.spread_buckets = std::max<std::size_t>(1, options_.spread_buckets);
  if (options_.load_buckets > kMaxBuckets ||
      options_.demand_buckets > kMaxBuckets ||
      options_.spread_buckets > kMaxBuckets) {
    throw std::invalid_argument("AssignmentEnv: more than 256 buckets");
  }
  // demand × spread × load_buckets^K, checked before each product.
  state_count_ = options_.demand_buckets * options_.spread_buckets;
  for (std::size_t a = 0; a < k_; ++a) {
    if (state_count_ > std::numeric_limits<std::size_t>::max() /
                           options_.load_buckets) {
      throw std::invalid_argument(
          "AssignmentEnv: state count overflows size_t");
    }
    state_count_ *= options_.load_buckets;
  }
  ranks_ = instance.rank_table();
  load_thresholds_.reserve(instance.server_count() *
                           (options_.load_buckets - 1));
  for (const double capacity : instance.capacities()) {
    const std::vector<double> thresholds =
        residual_bucket_thresholds(capacity, options_.load_buckets);
    load_thresholds_.insert(load_thresholds_.end(), thresholds.begin(),
                            thresholds.end());
  }

  const std::size_t n = instance.device_count();
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), 0);

  // Reward normalizer: mean per-device minimum cost.
  double total_min_cost = 0.0;
  std::vector<double> demands(n);
  std::vector<double> spreads(n);
  for (gap::DeviceIndex i = 0; i < n; ++i) {
    const auto ranked = instance.servers_by_delay(i);
    double lo = std::numeric_limits<double>::infinity();
    for (gap::ServerIndex j = 0; j < instance.server_count(); ++j) {
      lo = std::min(lo, instance.cost(i, j));
    }
    total_min_cost += lo;
    demands[i] = instance.demand(i, ranked[0]);
    const double d0 = instance.delay_ms(i, ranked[0]);
    const double d1 = instance.delay_ms(i, ranked[std::min<std::size_t>(
                                                1, ranked.size() - 1)]);
    spreads[i] = d0 > kEps ? (d1 - d0) / d0 : 0.0;
  }
  cost_scale_ = std::max(kEps, total_min_cost / static_cast<double>(n));

  const auto demand_thresholds =
      quantile_thresholds(demands, options_.demand_buckets);
  const auto spread_thresholds =
      quantile_thresholds(spreads, options_.spread_buckets);
  demand_bucket_.resize(n);
  spread_bucket_.resize(n);
  for (gap::DeviceIndex i = 0; i < n; ++i) {
    demand_bucket_[i] = bucket_of(demands[i], demand_thresholds);
    spread_bucket_[i] = bucket_of(spreads[i], spread_thresholds);
  }
  reset();
}

void AssignmentEnv::reset() {
  if (options_.shuffle_order) rng_.shuffle(order_);
  step_ = 0;
  assignment_.assign(instance_->device_count(), gap::kUnassigned);
  loads_.assign(instance_->server_count(), 0.0);
  load_bucket_.resize(instance_->server_count());
  for (gap::ServerIndex j = 0; j < load_bucket_.size(); ++j) {
    load_bucket_[j] = residual_bucket(loads_[j], instance_->capacities()[j],
                                      options_.load_buckets);
  }
  episode_cost_ = 0.0;
  violations_ = 0;
}

Observation AssignmentEnv::observe() const {
  if (done()) throw std::logic_error("AssignmentEnv::observe: episode done");
  const gap::DeviceIndex device = current_device();
  const std::uint32_t* ranked = current_ranks();
  const gap::DemandRow demand = instance_->demand_row(device);
  const std::span<const double> capacity = instance_->capacities();
  Observation obs;
  for (std::size_t a = k_; a-- > 0;) {
    const gap::ServerIndex j = ranked[a];
    obs.state = obs.state * options_.load_buckets + load_bucket_[j];
    if (loads_[j] + demand[j] <= capacity[j] + kEps) {
      obs.mask |= std::uint64_t{1} << a;
    }
  }
  obs.state = obs.state * options_.spread_buckets + spread_bucket_[device];
  obs.state = obs.state * options_.demand_buckets + demand_bucket_[device];
  return obs;
}

gap::ServerIndex AssignmentEnv::action_server(std::size_t a) const {
  if (done()) throw std::logic_error("AssignmentEnv: episode done");
  if (a >= k_) throw std::out_of_range("AssignmentEnv: bad action");
  return current_ranks()[a];
}

double AssignmentEnv::step(std::size_t action) {
  if (done()) throw std::logic_error("AssignmentEnv::step: episode done");
  if (action >= k_) throw std::out_of_range("AssignmentEnv::step: action");
  const gap::DeviceIndex device = current_device();
  gap::ServerIndex j = current_ranks()[action];
  const std::size_t m = instance_->server_count();
  const gap::DemandRow demand = instance_->demand_row(device);
  const std::span<const double> capacity = instance_->capacities();
  const double* delay = instance_->delay_matrix().row(device).data();
  const double weight = instance_->traffic_weights()[device];

  double reward = 0.0;
  const auto fits = [&](gap::ServerIndex server) {
    return loads_[server] + demand[server] <= capacity[server] + kEps;
  };
  if (!fits(j)) {
    // Redirect to the cheapest feasible server anywhere in the cluster;
    // half penalty — the agent wasted its pick but no constraint breaks.
    // The rank row is sorted by (delay, index) and a positive weight keeps
    // weight × delay in that order under rounding, so the first server that
    // fits is the cheapest; among the next ranks at exactly its cost, the
    // lowest index that fits wins. A cost of +inf (or NaN) redirects
    // nowhere.
    const std::uint32_t* ranked = current_ranks();
    gap::ServerIndex redirect = m;
    std::size_t r = 0;
    while (r < m && !fits(ranked[r])) ++r;
    if (r < m) {
      const double redirect_cost = weight * delay[ranked[r]];
      if (redirect_cost < std::numeric_limits<double>::infinity()) {
        redirect = ranked[r];
        for (++r; r < m && weight * delay[ranked[r]] == redirect_cost; ++r) {
          if (ranked[r] < redirect && fits(ranked[r])) redirect = ranked[r];
        }
      }
    }
    if (redirect != m) {
      j = redirect;
      reward -= options_.overload_penalty / 2.0;
    } else {
      // Nothing fits: overload the server least utilized after the step.
      j = 0;
      double least_utilization = std::numeric_limits<double>::infinity();
      for (gap::ServerIndex s = 0; s < m; ++s) {
        const double utilization = (loads_[s] + demand[s]) / capacity[s];
        if (utilization < least_utilization) {
          least_utilization = utilization;
          j = s;
        }
      }
      reward -= options_.overload_penalty;
      ++violations_;
    }
  }

  const double cost = weight * delay[j];
  reward -= cost / cost_scale_;
  const double load = loads_[j] += demand[j];
  const std::size_t thresholds = options_.load_buckets - 1;
  const double* threshold = load_thresholds_.data() + j * thresholds;
  std::uint8_t bucket = 0;
  for (std::size_t k = 0; k < thresholds; ++k) {
    bucket = static_cast<std::uint8_t>(bucket + (load <= threshold[k]));
  }
  load_bucket_[j] = bucket;
  assignment_[device] = static_cast<std::int32_t>(j);
  episode_cost_ += cost;
  ++step_;
  return reward;
}

}  // namespace tacc::rl
