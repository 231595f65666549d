#include "solvers/local_search.hpp"

#include <algorithm>
#include <numeric>

#include "solvers/constructive.hpp"
#include "util/timer.hpp"

namespace tacc::solvers {

namespace {
constexpr double kImproveEps = 1e-12;
}

std::size_t local_search_improve(const gap::Instance& instance,
                                 gap::Assignment& assignment,
                                 const LocalSearchOptions& options) {
  util::Rng rng(options.seed);
  gap::IncrementalEvaluator eval(instance, assignment);
  const std::size_t n = instance.device_count();
  const std::size_t m = instance.server_count();
  const std::size_t k =
      options.candidate_servers == 0
          ? m
          : std::min(options.candidate_servers, m);

  std::vector<gap::DeviceIndex> scan(n);
  std::iota(scan.begin(), scan.end(), 0);

  std::size_t improvements = 0;
  bool improved = true;
  while (improved) {
    improved = false;
    rng.shuffle(scan);
    for (gap::DeviceIndex i : scan) {
      // Moves: device i to one of its k lowest-delay servers. The list is
      // sorted by (delay, index) and weights are positive, so no server at
      // or past i's current one in it costs less: the scan stops there, and
      // right after a move, which makes the target the current server.
      const auto candidates = instance.servers_by_delay(i);
      const auto from = static_cast<gap::ServerIndex>(eval.assignment()[i]);
      for (std::size_t r = 0; r < k; ++r) {
        const gap::ServerIndex j = candidates[r];
        if (j == from) break;
        if (eval.move_cost_delta(i, j) < -kImproveEps &&
            eval.move_feasible(i, j)) {
          eval.apply_move(i, j);
          ++improvements;
          improved = true;
          if (options.max_improvements &&
              improvements >= options.max_improvements) {
            assignment = eval.assignment();
            return improvements;
          }
          break;
        }
      }
    }
    if (options.use_swaps) {
      // Swaps: scan random pairs — a full O(n²) pass is wasteful; sampling
      // n·log(n) pairs catches nearly all improving swaps in practice.
      const std::size_t samples = n * 4;
      for (std::size_t s = 0; s < samples; ++s) {
        const gap::DeviceIndex a = rng.index(n);
        const gap::DeviceIndex b = rng.index(n);
        if (a == b) continue;
        if (eval.swap_cost_delta(a, b) < -kImproveEps &&
            eval.swap_feasible(a, b)) {
          eval.apply_swap(a, b);
          ++improvements;
          improved = true;
          if (options.max_improvements &&
              improvements >= options.max_improvements) {
            assignment = eval.assignment();
            return improvements;
          }
        }
      }
    }
  }
  assignment = eval.assignment();
  return improvements;
}

SolveResult LocalSearchSolver::solve(const gap::Instance& instance) {
  util::WallTimer timer;
  GreedyBestFitSolver seed_solver;
  SolveResult seed = seed_solver.solve(instance);
  gap::Assignment assignment = std::move(seed.assignment);
  const std::size_t steps =
      local_search_improve(instance, assignment, options_);
  return detail::finish(instance, std::move(assignment), timer.elapsed_ms(),
                        steps);
}

}  // namespace tacc::solvers
