// Simulated annealing over the move/swap neighborhood.
//
// Metropolis acceptance on the cost objective with a geometric cooling
// schedule; infeasible states are admitted during the walk with a penalty
// proportional to total overload, so the chain can tunnel through capacity
// walls, but the best-so-far tracker only records feasible states (falling
// back to the final state if none was seen).
#pragma once

#include "solvers/solver.hpp"

namespace tacc::solvers {

/// The start temperature, cooling factor and swap/move mix are fixed in
/// simulated_annealing.cpp.
struct SimulatedAnnealingOptions {
  std::uint64_t seed = 1;
  std::size_t steps = 200'000;
};

class SimulatedAnnealingSolver final : public Solver {
 public:
  explicit SimulatedAnnealingSolver(SimulatedAnnealingOptions options = {})
      : options_(options) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return "simulated-annealing";
  }
  [[nodiscard]] SolveResult solve(const gap::Instance& instance) override;

 private:
  SimulatedAnnealingOptions options_;
};

}  // namespace tacc::solvers
