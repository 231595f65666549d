// Direct (topology-free) instance generators for solver tests and micro-
// benchmarks, plus tiny crafted instances with known optima.
#pragma once

#include "gap/instance.hpp"
#include "gap/solution.hpp"
#include "util/rng.hpp"

namespace tacc::gap {

struct RandomInstanceParams {
  std::size_t device_count = 50;
  std::size_t server_count = 5;
  /// Target Σ demand / Σ capacity.
  double load_factor = 0.7;
  bool heterogeneous_capacity = true;
  bool rate_weighted = false;  ///< if true, weights U[0.5, 2.0], else 1.0
};

/// The range random_instance() draws every delay from, uniformly.
inline constexpr double kRandomDelayMinMs = 1.0;
inline constexpr double kRandomDelayMaxMs = 30.0;

/// Uniform-random instance, always demand-feasible at the given load factor
/// (capacities scaled from realized total demand).
[[nodiscard]] Instance random_instance(const RandomInstanceParams& params,
                                       util::Rng& rng);

/// 2 devices × 2 servers where greedy-by-delay is forced into the wrong
/// choice but the optimum is known: used to verify exact solvers and to
/// demonstrate why look-ahead matters. Returns {instance, optimal_cost}.
struct CraftedInstance {
  Instance instance;
  double optimal_cost;
  Assignment optimal_assignment;
};
[[nodiscard]] CraftedInstance crafted_greedy_trap();

/// 3×2 instance whose only feasible solutions require splitting devices
/// across servers despite one server dominating on delay.
[[nodiscard]] CraftedInstance crafted_capacity_squeeze();

}  // namespace tacc::gap
