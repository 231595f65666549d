// GRASP — Greedy Randomized Adaptive Search Procedure.
//
// Multi-start: each iteration builds a solution with a *randomized* greedy
// (each device picks uniformly among the restricted candidate list of its
// cheapest feasible servers), then descends with local search; the best
// solution across iterations is returned. The classical strong multi-start
// baseline for GAP-type placement.
#pragma once

#include "solvers/local_search.hpp"
#include "solvers/solver.hpp"

namespace tacc::solvers {

struct GraspOptions {
  std::uint64_t seed = 1;
  std::size_t iterations = 24;
  /// Restricted-candidate-list size: each device chooses uniformly among
  /// its `rcl_size` cheapest currently-feasible servers.
  std::size_t rcl_size = 3;
};

class GraspSolver final : public Solver {
 public:
  explicit GraspSolver(GraspOptions options = {}) : options_(options) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return "grasp";
  }
  [[nodiscard]] SolveResult solve(const gap::Instance& instance) override;

 private:
  GraspOptions options_;
};

}  // namespace tacc::solvers
