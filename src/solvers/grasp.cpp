#include "solvers/grasp.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "util/rng.hpp"
#include "util/timer.hpp"

namespace tacc::solvers {

namespace {
constexpr double kEps = 1e-9;

/// One randomized-greedy construction pass.
gap::Assignment construct(const gap::Instance& instance, std::size_t rcl_size,
                          util::Rng& rng) {
  const std::size_t n = instance.device_count();
  const std::size_t m = instance.server_count();
  std::vector<gap::DeviceIndex> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);

  gap::Assignment assignment(n, gap::kUnassigned);
  std::vector<double> loads(m, 0.0);
  std::vector<gap::ServerIndex> rcl;
  for (gap::DeviceIndex i : order) {
    // Candidates in delay order; collect the cheapest feasible few.
    rcl.clear();
    for (std::uint32_t j : instance.servers_by_delay(i)) {
      if (loads[j] + instance.demand(i, j) <= instance.capacity(j) + kEps) {
        rcl.push_back(j);
        if (rcl.size() == rcl_size) break;
      }
    }
    gap::ServerIndex chosen;
    if (rcl.empty()) {
      chosen = detail::best_feasible_or_least_loaded(instance, i, loads);
    } else {
      chosen = rcl[rng.index(rcl.size())];
    }
    assignment[i] = static_cast<std::int32_t>(chosen);
    loads[chosen] += instance.demand(i, chosen);
  }
  return assignment;
}

}  // namespace

SolveResult GraspSolver::solve(const gap::Instance& instance) {
  util::WallTimer timer;
  util::Rng rng(options_.seed);

  gap::Assignment best;
  double best_cost = std::numeric_limits<double>::infinity();
  bool best_feasible = false;
  std::size_t improvements = 0;

  for (std::size_t it = 0; it < std::max<std::size_t>(1, options_.iterations);
       ++it) {
    gap::Assignment candidate =
        construct(instance, std::max<std::size_t>(1, options_.rcl_size), rng);
    LocalSearchOptions ls;
    ls.seed = options_.seed * 1000 + it;
    improvements += local_search_improve(instance, candidate, ls);

    const gap::Evaluation ev = gap::evaluate(instance, candidate);
    const bool better = (ev.feasible && !best_feasible) ||
                        (ev.feasible == best_feasible &&
                         ev.total_cost < best_cost);
    if (better) {
      best = std::move(candidate);
      best_cost = ev.total_cost;
      best_feasible = ev.feasible;
    }
  }
  return detail::finish(instance, std::move(best), timer.elapsed_ms(),
                        improvements);
}

}  // namespace tacc::solvers
