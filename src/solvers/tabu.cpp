#include "solvers/tabu.hpp"

#include <algorithm>
#include <limits>

#include "solvers/constructive.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace tacc::solvers {

namespace {
constexpr std::size_t kTenure = 20;  // iterations a reversed move stays tabu
}  // namespace

SolveResult TabuSolver::solve(const gap::Instance& instance) {
  util::WallTimer timer;
  const std::size_t n = instance.device_count();
  const std::size_t m = instance.server_count();
  const std::size_t k = options_.candidate_servers == 0
                            ? m
                            : std::min(options_.candidate_servers, m);

  GreedyBestFitSolver seed_solver;
  gap::Assignment current = seed_solver.solve(instance).assignment;
  gap::IncrementalEvaluator eval(instance, current);

  gap::Assignment best = eval.assignment();
  double best_cost = eval.total_cost();
  const bool seed_feasible = gap::is_feasible(instance, best);

  // tabu_until[device][server]: iteration until which moving `device` back
  // to `server` is forbidden. Flat n×m array.
  std::vector<std::size_t> tabu_until(n * m, 0);
  std::size_t since_improvement = 0;
  std::size_t iterations_done = 0;

  for (std::size_t it = 1; it <= options_.iterations; ++it) {
    ++iterations_done;
    // Best admissible move in the (restricted) neighborhood.
    gap::DeviceIndex best_device = n;
    gap::ServerIndex best_target = m;
    double best_delta = std::numeric_limits<double>::infinity();
    for (gap::DeviceIndex i = 0; i < n; ++i) {
      const auto candidates = instance.servers_by_delay(i);
      for (std::size_t r = 0; r < k; ++r) {
        const gap::ServerIndex j = candidates[r];
        if (static_cast<std::int32_t>(j) == eval.assignment()[i]) continue;
        if (!eval.move_feasible(i, j)) continue;
        const double delta = eval.move_cost_delta(i, j);
        const bool tabu = tabu_until[i * m + j] >= it;
        // Aspiration: a tabu move is admissible if it beats the best.
        if (tabu && eval.total_cost() + delta >= best_cost) continue;
        if (delta < best_delta) {
          best_delta = delta;
          best_device = i;
          best_target = j;
        }
      }
    }
    if (best_device == n) break;  // neighborhood empty

    const auto from =
        static_cast<gap::ServerIndex>(eval.assignment()[best_device]);
    eval.apply_move(best_device, best_target);
    // Forbid moving this device straight back.
    tabu_until[best_device * m + from] = it + kTenure;

    if (eval.total_cost() < best_cost - 1e-12 &&
        (!seed_feasible || gap::is_feasible(instance, eval.assignment()))) {
      best_cost = eval.total_cost();
      best = eval.assignment();
      since_improvement = 0;
    } else if (++since_improvement >= options_.stall_limit) {
      break;
    }
  }
  return detail::finish(instance, std::move(best), timer.elapsed_ms(),
                        iterations_done);
}

}  // namespace tacc::solvers
