#include "solvers/simulated_annealing.hpp"

#include <algorithm>
#include <cmath>

#include "solvers/constructive.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace tacc::solvers {

namespace {

constexpr double kCooling = 0.999'95;     // geometric factor per step
constexpr double kSwapProbability = 0.3;  // vs single-device move

[[nodiscard]] double overload(double load, double capacity) noexcept {
  return std::max(0.0, load - capacity);
}

}  // namespace

SolveResult SimulatedAnnealingSolver::solve(const gap::Instance& instance) {
  util::WallTimer timer;
  util::Rng rng(options_.seed);
  const std::size_t n = instance.device_count();
  const std::size_t m = instance.server_count();

  // Seed with best-fit so the walk starts near feasibility.
  GreedyBestFitSolver seed_solver;
  gap::Assignment assignment = seed_solver.solve(instance).assignment;

  std::vector<double> loads(m, 0.0);
  double cost = 0.0;
  for (gap::DeviceIndex i = 0; i < n; ++i) {
    const auto j = static_cast<gap::ServerIndex>(assignment[i]);
    loads[j] += instance.demand(i, j);
    cost += instance.cost(i, j);
  }

  const double penalty =
      detail::overload_penalty(detail::max_cost_entry(instance));
  // Start at a tenth of the seed's mean per-device cost.
  double temperature = std::max(1e-6, 0.1 * cost / static_cast<double>(n));

  gap::Assignment best = assignment;
  double best_cost = cost;
  bool best_feasible = gap::is_feasible(instance, assignment);
  if (!best_feasible) best_cost = std::numeric_limits<double>::infinity();

  const auto total_overload = [&] {
    double sum = 0.0;
    for (gap::ServerIndex j = 0; j < m; ++j) {
      sum += overload(loads[j], instance.capacity(j));
    }
    return sum;
  };
  double overload_now = total_overload();

  std::size_t steps_done = 0;
  for (std::size_t step = 0; step < options_.steps; ++step) {
    ++steps_done;
    const bool do_swap = m > 1 && rng.bernoulli(kSwapProbability);
    if (do_swap) {
      const gap::DeviceIndex a = rng.index(n);
      const gap::DeviceIndex b = rng.index(n);
      const auto ja = static_cast<gap::ServerIndex>(assignment[a]);
      const auto jb = static_cast<gap::ServerIndex>(assignment[b]);
      if (a == b || ja == jb) continue;
      const double cost_delta = instance.cost(a, jb) + instance.cost(b, ja) -
                                instance.cost(a, ja) - instance.cost(b, jb);
      const double la = loads[ja] - instance.demand(a, ja) +
                        instance.demand(b, ja);
      const double lb = loads[jb] - instance.demand(b, jb) +
                        instance.demand(a, jb);
      const double overload_delta =
          overload(la, instance.capacity(ja)) +
          overload(lb, instance.capacity(jb)) -
          overload(loads[ja], instance.capacity(ja)) -
          overload(loads[jb], instance.capacity(jb));
      const double energy_delta = cost_delta + penalty * overload_delta;
      if (energy_delta <= 0.0 ||
          rng.uniform() < std::exp(-energy_delta / temperature)) {
        loads[ja] = la;
        loads[jb] = lb;
        assignment[a] = static_cast<std::int32_t>(jb);
        assignment[b] = static_cast<std::int32_t>(ja);
        cost += cost_delta;
        overload_now += overload_delta;
      }
    } else {
      const gap::DeviceIndex i = rng.index(n);
      const gap::ServerIndex j = rng.index(m);
      const auto from = static_cast<gap::ServerIndex>(assignment[i]);
      if (j == from) continue;
      const double cost_delta = instance.cost(i, j) - instance.cost(i, from);
      const double lf = loads[from] - instance.demand(i, from);
      const double lt = loads[j] + instance.demand(i, j);
      const double overload_delta =
          overload(lf, instance.capacity(from)) +
          overload(lt, instance.capacity(j)) -
          overload(loads[from], instance.capacity(from)) -
          overload(loads[j], instance.capacity(j));
      const double energy_delta = cost_delta + penalty * overload_delta;
      if (energy_delta <= 0.0 ||
          rng.uniform() < std::exp(-energy_delta / temperature)) {
        loads[from] = lf;
        loads[j] = lt;
        assignment[i] = static_cast<std::int32_t>(j);
        cost += cost_delta;
        overload_now += overload_delta;
      }
    }

    if (overload_now <= 1e-9 && cost < best_cost) {
      best = assignment;
      best_cost = cost;
      best_feasible = true;
    }
    temperature *= kCooling;
  }

  if (!best_feasible) best = assignment;  // never saw feasibility: report walk end
  return detail::finish(instance, std::move(best), timer.elapsed_ms(),
                        steps_done);
}

}  // namespace tacc::solvers
