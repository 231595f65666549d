// Tabu search over the single-device move neighborhood.
//
// From a greedy seed, each iteration applies the best *feasible* move in the
// neighborhood even if it worsens the objective; reversing a recent move is
// forbidden for `tenure` iterations (the tabu list) unless it would beat the
// best solution seen (aspiration). Escapes the local optima that plain
// descent stops at.
#pragma once

#include "solvers/solver.hpp"

namespace tacc::solvers {

struct TabuOptions {
  std::uint64_t seed = 1;
  std::size_t iterations = 2000;
  /// Evaluate only the `candidate_servers` lowest-delay targets per device
  /// (0 = all); keeps the neighborhood scan affordable on large instances.
  std::size_t candidate_servers = 8;
  /// Stop early after this many iterations without improving the best.
  std::size_t stall_limit = 400;
};

class TabuSolver final : public Solver {
 public:
  explicit TabuSolver(TabuOptions options = {}) : options_(options) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return "tabu";
  }
  [[nodiscard]] SolveResult solve(const gap::Instance& instance) override;

 private:
  TabuOptions options_;
};

}  // namespace tacc::solvers
