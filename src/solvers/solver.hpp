// Common solver interface for the TACC/GAP problem.
//
// Every solver returns a *complete* assignment. Capacity-aware solvers fall
// back to the least-utilized server when no feasible choice exists (and the
// result is then marked infeasible) — experiments need the realized delay of
// every algorithm even where it fails the constraint, because "how badly
// does the state of the art overload" is itself a reported metric (F3).
#pragma once

#include <memory>
#include <string_view>

#include "gap/instance.hpp"
#include "gap/solution.hpp"

namespace tacc::solvers {

struct SolveResult {
  gap::Assignment assignment;
  double total_cost = 0.0;  ///< Σ weight·delay of the returned assignment
  bool feasible = false;    ///< complete and within every capacity
  double wall_ms = 0.0;     ///< solver wall-clock time
  std::size_t iterations = 0;  ///< solver-specific effort counter
  bool proven_optimal = false; ///< only exact solvers ever set this
};

class Solver {
 public:
  virtual ~Solver() = default;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] virtual SolveResult solve(const gap::Instance& instance) = 0;
};

using SolverPtr = std::unique_ptr<Solver>;

namespace detail {
/// Finishes a SolveResult from an assignment: evaluates cost/feasibility.
[[nodiscard]] SolveResult finish(const gap::Instance& instance,
                                 gap::Assignment assignment, double wall_ms,
                                 std::size_t iterations);

/// The largest entry of the instance's cost matrix.
[[nodiscard]] double max_cost_entry(const gap::Instance& instance);

/// Energy per unit of overload for the solvers that walk through
/// infeasible states (annealing, genetic, UCB rollout), given
/// max_cost_entry(): 4 × it + 1, so shedding overload outweighs any cost
/// change.
[[nodiscard]] double overload_penalty(double max_cost);

/// The shared fallback: cheapest server that stays feasible, else the one
/// with the lowest post-assignment utilization.
[[nodiscard]] gap::ServerIndex best_feasible_or_least_loaded(
    const gap::Instance& instance, gap::DeviceIndex device,
    const std::vector<double>& loads);
}  // namespace detail

}  // namespace tacc::solvers
