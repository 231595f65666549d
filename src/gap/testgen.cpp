#include "gap/testgen.hpp"

#include <numeric>

namespace tacc::gap {

namespace {
// Per-device demand range of random instances.
constexpr double kDemandMin = 0.5;
constexpr double kDemandMax = 2.0;
}  // namespace

Instance random_instance(const RandomInstanceParams& params, util::Rng& rng) {
  const std::size_t n = params.device_count;
  const std::size_t m = params.server_count;
  topo::DelayMatrix delay(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      delay.set(i, j, rng.uniform(kRandomDelayMinMs, kRandomDelayMaxMs));
    }
  }
  std::vector<double> demands(n);
  double total_demand = 0.0;
  for (auto& d : demands) {
    d = rng.uniform(kDemandMin, kDemandMax);
    total_demand += d;
  }
  std::vector<double> weights(n, 1.0);
  if (params.rate_weighted) {
    for (auto& w : weights) w = rng.uniform(0.5, 2.0);
  }
  std::vector<double> shares(m, 1.0);
  if (params.heterogeneous_capacity) {
    for (auto& s : shares) s = rng.uniform(0.5, 1.5);
  }
  const double share_sum = std::accumulate(shares.begin(), shares.end(), 0.0);
  std::vector<double> capacities(m);
  for (std::size_t j = 0; j < m; ++j) {
    capacities[j] =
        total_demand / params.load_factor * shares[j] / share_sum;
  }
  return Instance(std::move(delay), std::move(weights), std::move(demands),
                  std::move(capacities));
}

CraftedInstance crafted_greedy_trap() {
  // Server 0 is closest for both devices, but only fits one. Greedy that
  // assigns device 0 (processed first) to server 0 forces device 1 onto the
  // distant server 1 at delay 100; the optimum puts device 1 (for which
  // server 1 is catastrophic) on server 0 and device 0 on server 1 (delay 5).
  //      s0   s1
  // d0:   1    5       demand 1
  // d1:   2  100       demand 1
  // cap: 1, 2
  topo::DelayMatrix delay(2, 2);
  delay.set(0, 0, 1.0);
  delay.set(0, 1, 5.0);
  delay.set(1, 0, 2.0);
  delay.set(1, 1, 100.0);
  Instance instance(std::move(delay), std::vector<double>{},
                    std::vector<double>{1.0, 1.0},
                    std::vector<double>{1.0, 2.0});
  return {std::move(instance), 7.0, {1, 0}};
}

CraftedInstance crafted_capacity_squeeze() {
  // Server 0 dominates on delay for all three devices but fits only two;
  // the optimum parks the device with the mildest penalty (d2) on server 1.
  //      s0   s1
  // d0:   1   10       demand 1
  // d1:   1   20       demand 1
  // d2:   1    3       demand 1
  // cap: 2, 2
  topo::DelayMatrix delay(3, 2);
  delay.set(0, 0, 1.0);
  delay.set(0, 1, 10.0);
  delay.set(1, 0, 1.0);
  delay.set(1, 1, 20.0);
  delay.set(2, 0, 1.0);
  delay.set(2, 1, 3.0);
  Instance instance(std::move(delay), std::vector<double>{},
                    std::vector<double>{1.0, 1.0, 1.0},
                    std::vector<double>{2.0, 2.0});
  return {std::move(instance), 5.0, {0, 0, 1}};
}

}  // namespace tacc::gap
