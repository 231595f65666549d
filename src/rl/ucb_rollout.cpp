#include "rl/ucb_rollout.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/rng.hpp"
#include "util/timer.hpp"

namespace tacc::rl {

namespace {
constexpr double kEps = 1e-9;
constexpr double kExploration = 1.2;  // UCB1 exploration constant

/// Completes `assignment` greedily over `remaining` (shuffled by caller):
/// each device goes to its cheapest currently-feasible server, else the
/// least-utilized one. Returns (cost added, violations incurred).
struct RolloutOutcome {
  double cost = 0.0;
  std::size_t violations = 0;
};

RolloutOutcome rollout_complete(const gap::Instance& instance,
                                std::vector<double>& loads,
                                const std::vector<gap::DeviceIndex>& remaining,
                                std::size_t from_index) {
  RolloutOutcome outcome;
  for (std::size_t r = from_index; r < remaining.size(); ++r) {
    const gap::DeviceIndex i = remaining[r];
    const gap::ServerIndex j =
        solvers::detail::best_feasible_or_least_loaded(instance, i, loads);
    if (loads[j] + instance.demand(i, j) > instance.capacity(j) + kEps) {
      ++outcome.violations;
    }
    loads[j] += instance.demand(i, j);
    outcome.cost += instance.cost(i, j);
  }
  return outcome;
}

}  // namespace

solvers::SolveResult UcbRolloutSolver::solve(const gap::Instance& instance) {
  util::WallTimer timer;
  util::Rng rng(options_.seed);
  const std::size_t n = instance.device_count();
  const std::size_t m = instance.server_count();
  const std::size_t k = std::min(options_.candidate_count, m);

  const double max_cost = solvers::detail::max_cost_entry(instance);
  const double penalty = solvers::detail::overload_penalty(max_cost);

  // Commitment order: heavy devices first.
  std::vector<gap::DeviceIndex> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](gap::DeviceIndex a, gap::DeviceIndex b) {
              const double da = instance.demand(a, 0);
              const double db = instance.demand(b, 0);
              return da != db ? da > db : a < b;
            });

  gap::Assignment assignment(n, gap::kUnassigned);
  std::vector<double> loads(m, 0.0);
  std::size_t iterations = 0;

  std::vector<double> scratch_loads;
  std::vector<gap::DeviceIndex> scratch_order(order);

  for (std::size_t t = 0; t < n; ++t) {
    const gap::DeviceIndex device = order[t];
    const auto ranked = instance.servers_by_delay(device);

    std::vector<double> mean_value(k, 0.0);
    std::vector<std::size_t> pulls(k, 0);

    const std::size_t budget = std::max(options_.rollouts_per_device, k);
    for (std::size_t pull = 0; pull < budget; ++pull) {
      // Arm selection: each once, then UCB1 (rewards are negative costs, so
      // we maximize mean + c·sqrt(ln N / n_a)).
      std::size_t arm = k;
      for (std::size_t a = 0; a < k; ++a) {
        if (pulls[a] == 0) {
          arm = a;
          break;
        }
      }
      if (arm == k) {
        double best_ucb = -std::numeric_limits<double>::infinity();
        for (std::size_t a = 0; a < k; ++a) {
          const double bonus =
              kExploration *
              std::sqrt(std::log(static_cast<double>(pull + 1)) /
                        static_cast<double>(pulls[a]));
          const double ucb = mean_value[a] + bonus;
          if (ucb > best_ucb) {
            best_ucb = ucb;
            arm = a;
          }
        }
      }

      // Play the arm: tentative assignment + randomized-order completion.
      const gap::ServerIndex j = ranked[arm];
      scratch_loads = loads;
      double episode_cost = instance.cost(device, j);
      std::size_t violations = 0;
      if (scratch_loads[j] + instance.demand(device, j) >
          instance.capacity(j) + kEps) {
        ++violations;
      }
      scratch_loads[j] += instance.demand(device, j);

      // Shuffle the tail of the remaining devices for rollout diversity.
      rng.shuffle(std::span<gap::DeviceIndex>(scratch_order)
                      .subspan(t + 1));
      const RolloutOutcome outcome = rollout_complete(
          instance, scratch_loads, scratch_order, t + 1);
      episode_cost += outcome.cost;
      violations += outcome.violations;

      const double value =
          -(episode_cost + penalty * static_cast<double>(violations)) /
          (max_cost * static_cast<double>(n) + 1.0);
      ++pulls[arm];
      mean_value[arm] +=
          (value - mean_value[arm]) / static_cast<double>(pulls[arm]);
      ++iterations;
    }

    // Commit the best-mean arm, preferring feasible ones.
    std::size_t best_arm = 0;
    double best_mean = -std::numeric_limits<double>::infinity();
    for (std::size_t a = 0; a < k; ++a) {
      const gap::ServerIndex j = ranked[a];
      const bool fits = loads[j] + instance.demand(device, j) <=
                        instance.capacity(j) + kEps;
      // Heavily discount arms that violate immediately.
      const double adjusted = mean_value[a] - (fits ? 0.0 : 1e6);
      if (adjusted > best_mean) {
        best_mean = adjusted;
        best_arm = a;
      }
    }
    gap::ServerIndex chosen = ranked[best_arm];
    if (loads[chosen] + instance.demand(device, chosen) >
        instance.capacity(chosen) + kEps) {
      chosen = solvers::detail::best_feasible_or_least_loaded(instance,
                                                              device, loads);
    }
    loads[chosen] += instance.demand(device, chosen);
    assignment[device] = static_cast<std::int32_t>(chosen);

    // Keep scratch_order's committed prefix aligned with `order`.
    scratch_order = order;
  }

  return solvers::detail::finish(instance, std::move(assignment),
                                 timer.elapsed_ms(), iterations);
}

}  // namespace tacc::rl
