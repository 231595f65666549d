// Genetic algorithm over assignment chromosomes.
//
// Chromosome = the assignment vector itself. Fitness = cost plus a linear
// overload penalty, so selection pressure pushes the population toward
// feasibility without hard-rejecting informative infeasible parents.
// Tournament selection, uniform crossover, per-gene mutation to a random
// low-delay server, elitism, and a greedy repair pass on the final winner.
#pragma once

#include "solvers/solver.hpp"

namespace tacc::solvers {

/// Tournament size, crossover rate and mutation candidates are fixed in
/// genetic.cpp.
struct GeneticOptions {
  std::uint64_t seed = 1;
  std::size_t population = 40;
  std::size_t generations = 120;
  double mutation_rate = 0.02;    ///< per gene
  std::size_t elite = 2;          ///< copied unchanged each generation
};

class GeneticSolver final : public Solver {
 public:
  explicit GeneticSolver(GeneticOptions options = {}) : options_(options) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return "genetic";
  }
  [[nodiscard]] SolveResult solve(const gap::Instance& instance) override;

 private:
  GeneticOptions options_;
};

}  // namespace tacc::solvers
